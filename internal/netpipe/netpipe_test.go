package netpipe

import (
	"context"
	"testing"

	"hydee/internal/core"
	"hydee/internal/netmodel"
)

func TestStandardSizesSane(t *testing.T) {
	sizes := StandardSizes()
	if len(sizes) < 30 {
		t.Fatalf("only %d sizes", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly ascending at %d: %d, %d", i, sizes[i-1], sizes[i])
		}
	}
	if sizes[0] != 1 || sizes[len(sizes)-1] != 8<<20 {
		t.Fatalf("range [%d, %d]", sizes[0], sizes[len(sizes)-1])
	}
}

func TestNativeSweepMatchesModel(t *testing.T) {
	model := netmodel.Myrinet10G()
	pts, err := RunCtx(context.Background(), Config{Model: model, Sizes: []int{1, 1024, 1 << 20}, Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// One-way latency of a 1-byte ping must be close to the model's
	// small-message cost (send overhead + latency + recv overhead).
	want := (model.SendOverhead(1) + model.Latency(1) + model.RecvOverhead(1)).Micros()
	if got := pts[0].LatencyUs; got < want*0.95 || got > want*1.05 {
		t.Fatalf("1-byte latency %.2fµs, model %.2fµs", got, want)
	}
	// Large-message bandwidth approaches the wire rate.
	bw := pts[2].BandwidthMBps
	if bw < 0.7*model.BytesPerSec/1e6 {
		t.Fatalf("1MiB bandwidth %.0f MB/s, wire %.0f MB/s", bw, model.BytesPerSec/1e6)
	}
}

func TestHydEENeverFasterThanNative(t *testing.T) {
	model := netmodel.Myrinet10G()
	sizes := []int{1, 17, 32, 33, 1024, 1025, 64 << 10, 1 << 20}
	native, err := RunCtx(context.Background(), Config{Model: model, Sizes: sizes, Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	hyd, err := RunCtx(context.Background(), Config{Model: model, Sizes: sizes, Reps: 5, Protocol: core.New(), SameCluster: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if hyd[i].LatencyUs+1e-9 < native[i].LatencyUs {
			t.Errorf("size %d: hydee %.3fµs faster than native %.3fµs", sizes[i], hyd[i].LatencyUs, native[i].LatencyUs)
		}
	}
}

func TestLoggingCostMatchesNoLogging(t *testing.T) {
	// §V-C: "the performance with and without logging are equivalent" —
	// the sender-based copy overlaps the transmission.
	model := netmodel.Myrinet10G()
	sizes := []int{64, 4096, 1 << 20}
	noLog, err := RunCtx(context.Background(), Config{Model: model, Sizes: sizes, Reps: 5, Protocol: core.New(), SameCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	withLog, err := RunCtx(context.Background(), Config{Model: model, Sizes: sizes, Reps: 5, Protocol: core.New(), SameCluster: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		rel := (withLog[i].LatencyUs - noLog[i].LatencyUs) / noLog[i].LatencyUs
		if rel > 0.02 {
			t.Errorf("size %d: logging adds %.1f%% latency (must be ~free)", sizes[i], rel*100)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{}); err == nil {
		t.Fatal("missing model accepted")
	}
}

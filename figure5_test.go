package hydee

// Tests for Figure 5's ping-pong runs: the size sweep, the native curve
// against the network model, and HydEE's piggyback and logging costs.

import (
	"context"
	"testing"

	"hydee/internal/netmodel"
)

type point struct{ LatencyUs, BandwidthMBps float64 }

// sweep runs the ping-pong at each size under one Figure 5 configuration
// (proto, with assign for ProtoHydEE) and returns one point per size.
func sweep(t *testing.T, model Model, proto ExperimentProto, assign []int, sizes []int, reps int) []point {
	t.Helper()
	specs := make([]ExperimentSpec, len(sizes))
	for i, size := range sizes {
		specs[i] = ExperimentSpec{Kernel: pingPong(size), Params: KernelParams{NP: 2, Iters: reps}, Proto: proto, Assign: assign, Model: model}
	}
	sums, err := RunExperiments(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]point, len(sizes))
	for i, size := range sizes {
		pts[i].LatencyUs, pts[i].BandwidthMBps = pingPongPoint(sums[i], size, reps)
	}
	return pts
}

func TestStandardSizesSane(t *testing.T) {
	sizes := NetPIPEStandardSizes()
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
	pts := sweep(t, model, ProtoNative, nil, []int{1, 1024, 1 << 20}, 5)
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
	native := sweep(t, model, ProtoNative, nil, sizes, 5)
	hyd := sweep(t, model, ProtoHydEE, []int{0, 1}, sizes, 5)
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
	noLog := sweep(t, model, ProtoHydEE, []int{0, 0}, sizes, 5)
	withLog := sweep(t, model, ProtoHydEE, []int{0, 1}, sizes, 5)
	for i := range sizes {
		rel := (withLog[i].LatencyUs - noLog[i].LatencyUs) / noLog[i].LatencyUs
		if rel > 0.02 {
			t.Errorf("size %d: logging adds %.1f%% latency (must be ~free)", sizes[i], rel*100)
		}
	}
}

package hydee

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// RunExperimentContext runs one spec under ctx, for the external tests.
var RunExperimentContext = runExperiment

func TestSpecValidation(t *testing.T) {
	k, _ := KernelByName("cg")
	if _, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 0}}); err == nil {
		t.Fatal("accepted NP=0")
	}
	// HydEE without an assignment must fail loudly.
	if _, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 4, Iters: 1}, Proto: ProtoHydEE}); err == nil {
		t.Fatal("accepted hydee without clustering")
	}
	if _, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 4, Iters: 1}, Proto: ExperimentProto(99)}); err == nil {
		t.Fatal("accepted unknown protocol")
	}
	// Cluster ids outside [0, np), or with an empty cluster below the
	// largest, are an error, not a panic or a failed run later.
	for _, assign := range [][]int{{0, 0, 4, 1}, {0, 0, -1, 1}, {0, 2, 2, 2}} {
		_, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 4, Iters: 1}, Proto: ProtoHydEE, Assign: assign})
		if err == nil || !strings.Contains(err.Error(), "cluster id") {
			t.Errorf("assign %v: error %v, want a cluster id error", assign, err)
		}
	}
}

func TestProtoString(t *testing.T) {
	cases := map[ExperimentProto]string{
		ProtoNative: "native", ProtoCoord: "coord", ProtoMLog: "mlog", ProtoHydEE: "hydee",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d: %q", int(p), p.String())
		}
	}
}

func TestSameDigestsDetectsDivergence(t *testing.T) {
	a := &ExperimentSummary{Digests: []any{uint64(1), uint64(2)}}
	b := &ExperimentSummary{Digests: []any{uint64(1), uint64(3)}}
	if err := sameDigests(a, a); err != nil {
		t.Fatal(err)
	}
	if err := sameDigests(a, b); err == nil {
		t.Fatal("missed divergence")
	}
	if err := sameDigests(a, &ExperimentSummary{}); err == nil {
		t.Fatal("missed count mismatch")
	}
}

func TestTraceGraphSymmetryAndVolume(t *testing.T) {
	k, _ := KernelByName("mg")
	sum, err := RunExperiment(ExperimentSpec{Kernel: k, Params: KernelParams{NP: 8, Iters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g := CommGraphFromPairBytes(8, sum.PairBytes)
	if g.N != 8 || g.Total <= 0 {
		t.Fatalf("graph: N=%d total=%v", g.N, g.Total)
	}
	// Graph total must equal the run's application bytes (symmetrized).
	if int64(g.Total) != sum.Totals.AppBytes {
		t.Fatalf("graph total %v != app bytes %d", g.Total, sum.Totals.AppBytes)
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if g.Weight(i, j) != g.Weight(j, i) {
				t.Fatal("graph not symmetric")
			}
		}
	}
}

func TestFormatters(t *testing.T) {
	t1 := FormatTable1([]Table1Row{{App: "cg", K: 16, RollbackPct: 6.25, LoggedGB: 440, TotalGB: 2318, LoggedPct: 18.98}})
	if !strings.Contains(t1, "CG") || !strings.Contains(t1, "18.98") {
		t.Fatalf("table1 format: %q", t1)
	}
	f5 := FormatFigure5([]Fig5Row{{Bytes: 32, NativeLatUs: 3.3, LatRedNoLogPct: -15.8}})
	if !strings.Contains(f5, "-15.80") {
		t.Fatalf("fig5 format: %q", f5)
	}
	f6 := FormatFigure6([]Fig6Row{{App: "ft", MLogNorm: 1.0027, HydEENorm: 1.0015, MLogPct: 0.27, HydEEPct: 0.15}})
	if !strings.Contains(f6, "FT") || !strings.Contains(f6, "1.0027") {
		t.Fatalf("fig6 format: %q", f6)
	}
	e4 := FormatE4([]E4Row{{App: "cg", Proto: "hydee", RolledBackPct: 25, RecoveryVT: Duration(21e6), MakespanVT: Time(1e9)}})
	if !strings.Contains(e4, "hydee") || !strings.Contains(e4, "25.00%") {
		t.Fatalf("e4 format: %q", e4)
	}
	e5 := FormatE5([]E5Row{{Config: "hydee-staggered", MaxQueue: Duration(68e6), Makespan: Time(6e8), CkptBytes: 42}})
	if !strings.Contains(e5, "hydee-staggered") {
		t.Fatalf("e5 format: %q", e5)
	}
}

func TestClusteringsCoverAllKernels(t *testing.T) {
	m, rows, err := Clusterings(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || len(rows) != 6 {
		t.Fatalf("clusterings: %d assignments, %d rows", len(m), len(rows))
	}
	for name, assign := range m {
		if len(assign) != 16 {
			t.Errorf("%s: assignment covers %d ranks", name, len(assign))
		}
	}
}

func TestMLogLogsEverything(t *testing.T) {
	k, _ := KernelByName("mg")
	sum, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 8, Iters: 2}, Proto: ProtoMLog})
	if err != nil {
		t.Fatal(err)
	}
	if sum.LoggedFrac < 0.999 {
		t.Fatalf("mlog logged %.3f of bytes, want all", sum.LoggedFrac)
	}
	if sum.Totals.PiggyBytes == 0 {
		t.Fatal("mlog piggybacked nothing (determinants missing)")
	}
}

func TestCoordLogsNothing(t *testing.T) {
	k, _ := KernelByName("mg")
	sum, err := runExperiment(context.Background(), ExperimentSpec{Kernel: k, Params: KernelParams{NP: 8, Iters: 2}, Proto: ProtoCoord})
	if err != nil {
		t.Fatal(err)
	}
	if sum.LoggedFrac != 0 || sum.PiggyFrac != 0 {
		t.Fatalf("coord logged %.3f piggy %.3f, want zero", sum.LoggedFrac, sum.PiggyFrac)
	}
}

// TestFirstFailurePrefersRealFailure pins RunExperiments' error rule: the
// first real failure wins over the cancellations it
// caused, wherever it sits; a cancellation is reported only when nothing
// else failed.
func TestFirstFailurePrefersRealFailure(t *testing.T) {
	canceled := fmt.Errorf("sweep: %w", ErrCanceled)
	boom, later := errors.New("boom"), errors.New("later")
	cases := []struct {
		errs []error
		want error
	}{
		{nil, nil},
		{[]error{nil, nil}, nil},
		{[]error{canceled, nil, boom, later}, boom},
		{[]error{nil, canceled, canceled}, canceled},
	}
	for i, tc := range cases {
		if got := firstFailure(tc.errs); got != tc.want {
			t.Errorf("case %d: firstFailure = %v, want %v", i, got, tc.want)
		}
	}
}

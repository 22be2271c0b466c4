package hydee_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hydee"
)

// traceSpec is the failure-free native run of k at np ranks the
// clustering tool traces.
func traceSpec(k hydee.Kernel, np int) hydee.ExperimentSpec {
	return hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: np, Iters: 2}, Proto: hydee.ProtoNative}
}

// TestRunAllMatchesSerial checks the acceptance criterion: a parallel sweep
// produces exactly the summaries the serial path does, in spec order.
func TestRunAllMatchesSerial(t *testing.T) {
	var specs []hydee.ExperimentSpec
	for _, k := range hydee.Kernels()[:3] {
		specs = append(specs, traceSpec(k, 16))
	}
	serial := make([]*hydee.ExperimentSummary, len(specs))
	for i, s := range specs {
		sum, err := hydee.RunExperiment(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = sum
	}
	par, err := hydee.RunExperiments(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		a, b := serial[i], par[i]
		if a.App != b.App || a.Makespan != b.Makespan || a.Totals != b.Totals {
			t.Errorf("spec %d differs: serial %+v vs parallel %+v", i, a, b)
		}
		if fmt.Sprint(a.PairBytes) != fmt.Sprint(b.PairBytes) {
			t.Errorf("spec %d pair-bytes differ", i)
		}
	}
}

// TestTable1ParallelByteIdentical renders Table1 rows computed serially
// (parallelism 1) and with parallelism 4 and requires byte-identical text.
func TestTable1ParallelByteIdentical(t *testing.T) {
	serial, err := hydee.Table1(context.Background(), 32, 2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := hydee.Table1(context.Background(), 32, 2, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := hydee.FormatTable1(serial), hydee.FormatTable1(par)
	if a != b {
		t.Fatalf("Table1 rows differ between serial and parallel sweeps:\n--- serial\n%s\n--- parallel\n%s", a, b)
	}
}

// TestRunAllPropagatesFirstError checks that a failing spec is reported and
// the sibling cancellations do not mask it.
func TestRunAllPropagatesFirstError(t *testing.T) {
	k := hydee.Kernels()[0]
	good := traceSpec(k, 8)
	bad := good
	bad.Proto = hydee.ExperimentProto(99)
	sums, err := hydee.RunExperiments(context.Background(), []hydee.ExperimentSpec{good, bad, good}, 3)
	if err == nil || sums != nil {
		t.Fatalf("want error, got sums=%v err=%v", sums, err)
	}
	if errors.Is(err, hydee.ErrCanceled) {
		t.Fatalf("cancellation masked the real failure: %v", err)
	}
}

// TestRunAllHonorsCallerContext checks that canceling the caller's context
// aborts the sweep with ErrCanceled.
func TestRunAllHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var specs []hydee.ExperimentSpec
	for _, k := range hydee.Kernels() {
		specs = append(specs, traceSpec(k, 16))
	}
	if _, err := hydee.RunExperiments(ctx, specs, 2); err == nil {
		t.Fatal("want error from canceled sweep")
	}
}

// TestRunAllEmpty checks the degenerate inputs.
func TestRunAllEmpty(t *testing.T) {
	sums, err := hydee.RunExperiments(context.Background(), nil, 4)
	if sums != nil || err != nil {
		t.Fatalf("empty sweep: %v %v", sums, err)
	}
}

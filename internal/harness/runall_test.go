package harness_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hydee/internal/apps"
	"hydee/internal/graph"
	"hydee/internal/harness"
	"hydee/internal/mpi"
)

// TestRunAllMatchesSerial checks the acceptance criterion: a parallel sweep
// produces exactly the summaries the serial path does, in spec order.
func TestRunAllMatchesSerial(t *testing.T) {
	var specs []harness.Spec
	for _, k := range apps.Registry()[:3] {
		specs = append(specs, harness.TraceSpec(k, apps.Params{NP: 16, Iters: 2}, nil))
	}
	serial := make([]*harness.Summary, len(specs))
	for i, s := range specs {
		sum, err := harness.RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = sum
	}
	par, err := harness.RunAll(context.Background(), specs, 4)
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
	opt := graph.DefaultOptions()
	serial, err := harness.Table1(context.Background(), 32, 2, opt, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.Table1(context.Background(), 32, 2, opt, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := harness.FormatTable1(serial), harness.FormatTable1(par)
	if a != b {
		t.Fatalf("Table1 rows differ between serial and parallel sweeps:\n--- serial\n%s\n--- parallel\n%s", a, b)
	}
}

// TestRunAllPropagatesFirstError checks that a failing spec is reported and
// the sibling cancellations do not mask it.
func TestRunAllPropagatesFirstError(t *testing.T) {
	k := apps.Registry()[0]
	good := harness.TraceSpec(k, apps.Params{NP: 8, Iters: 2}, nil)
	bad := good
	bad.Proto = harness.Proto(99)
	sums, err := harness.RunAll(context.Background(), []harness.Spec{good, bad, good}, 3)
	if err == nil || sums != nil {
		t.Fatalf("want error, got sums=%v err=%v", sums, err)
	}
	if errors.Is(err, mpi.ErrCanceled) {
		t.Fatalf("cancellation masked the real failure: %v", err)
	}
}

// TestRunAllHonorsCallerContext checks that canceling the caller's context
// aborts the sweep with ErrCanceled.
func TestRunAllHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var specs []harness.Spec
	for _, k := range apps.Registry() {
		specs = append(specs, harness.TraceSpec(k, apps.Params{NP: 16, Iters: 2}, nil))
	}
	if _, err := harness.RunAll(ctx, specs, 2); err == nil {
		t.Fatal("want error from canceled sweep")
	}
}

// TestRunAllEmpty checks the degenerate inputs.
func TestRunAllEmpty(t *testing.T) {
	sums, err := harness.RunAll(context.Background(), nil, 4)
	if sums != nil || err != nil {
		t.Fatalf("empty sweep: %v %v", sums, err)
	}
}

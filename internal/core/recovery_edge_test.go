package core_test

// Edge cases of the recovery machinery: failures with and without
// checkpoints, repeated failures, failures racing checkpoints at arbitrary
// points, and the interaction between garbage collection and replay.

import (
	"testing"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

func runStencil(t *testing.T, prot rollback.Protocol, assign []int, iters, ckptEvery int, sched []failure.Event) *mpi.Result {
	t.Helper()
	res, err := mpi.Run(mpi.Config{
		NP:              len(assign),
		Topo:            rollback.NewTopology(assign),
		Protocol:        prot,
		Model:           netmodel.Myrinet10G(),
		CheckpointEvery: ckptEvery,
		Failures:        sched,
	}, apps.Stencil2D(iters, 32*1024))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var edgeAssign = []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}

func sameResults(t *testing.T, a, b *mpi.Result, label string) {
	t.Helper()
	for r := range a.Results {
		if a.Results[r] != b.Results[r] {
			t.Fatalf("%s: rank %d diverged: %v vs %v", label, r, a.Results[r], b.Results[r])
		}
	}
}

func TestRecoveryWithoutAnyCheckpoint(t *testing.T) {
	clean := runStencil(t, core.New(), edgeAssign, 6, 0, nil)
	failed := runStencil(t, core.New(), edgeAssign, 6, 0, []failure.Event{{
		Ranks: []int{5},
		When:  failure.Trigger{AfterSends: 7},
	}})
	if len(failed.Rounds) != 1 {
		t.Fatalf("rounds %d", len(failed.Rounds))
	}
	sameResults(t, clean, failed, "scratch restart")
	if failed.Totals.Restarts != 4 {
		t.Fatalf("restarts %d, want the 4 ranks of cluster 1", failed.Totals.Restarts)
	}
}

func TestSequentialFailureRounds(t *testing.T) {
	clean := runStencil(t, core.New(), edgeAssign, 14, 4, nil)
	failed := runStencil(t, core.New(), edgeAssign, 14, 4, []failure.Event{
		{Ranks: []int{2}, When: failure.Trigger{AfterCheckpoints: 1}},
		{Ranks: []int{9}, When: failure.Trigger{AfterCheckpoints: 2}},
	})
	if len(failed.Rounds) != 2 {
		t.Fatalf("rounds %d, want 2", len(failed.Rounds))
	}
	sameResults(t, clean, failed, "two sequential rounds")
}

func TestSameClusterFailsTwice(t *testing.T) {
	clean := runStencil(t, core.New(), edgeAssign, 14, 3, nil)
	failed := runStencil(t, core.New(), edgeAssign, 14, 3, []failure.Event{
		{Ranks: []int{4}, When: failure.Trigger{AfterCheckpoints: 1}},
		{Ranks: []int{6}, When: failure.Trigger{AfterCheckpoints: 3}},
	})
	if len(failed.Rounds) != 2 {
		t.Fatalf("rounds %d, want 2", len(failed.Rounds))
	}
	sameResults(t, clean, failed, "same cluster twice")
}

// TestFailureSweep moves the failure point across the execution, including
// positions that race coordinated checkpoints, and checks every recovered
// run against the failure-free digests.
func TestFailureSweep(t *testing.T) {
	clean := runStencil(t, core.New(), edgeAssign, 10, 3, nil)
	for _, after := range []int64{1, 5, 9, 17, 23, 31, 39} {
		failed := runStencil(t, core.New(), edgeAssign, 10, 3, []failure.Event{{
			Ranks: []int{10},
			When:  failure.Trigger{AfterSends: after},
		}})
		if len(failed.Rounds) != 1 {
			t.Fatalf("after %d sends: rounds %d", after, len(failed.Rounds))
		}
		sameResults(t, clean, failed, "sweep")
	}
}

// TestGCBoundsLogOccupancy checks §III-E: with garbage collection, the peak
// sender-log occupancy stays well below the total logged volume, and
// recovery still works after pruning.
func TestGCBoundsLogOccupancy(t *testing.T) {
	iters, ckpt := 24, 2
	withGC := runStencil(t, core.New(), edgeAssign, iters, ckpt, nil)
	noGC := runStencil(t, core.NewWithOptions(core.Options{Name: "hydee-nogc", DisableGC: true}),
		edgeAssign, iters, ckpt, nil)

	if withGC.Totals.GCReclaimed == 0 {
		t.Fatal("garbage collection reclaimed nothing")
	}
	if noGC.Totals.GCReclaimed != 0 {
		t.Fatal("DisableGC still reclaimed")
	}
	// Without GC the peak log equals everything ever logged per rank; with
	// GC it must be substantially lower.
	if withGC.Totals.LogPeakBytes >= noGC.Totals.LogPeakBytes {
		t.Fatalf("GC did not bound the log: peak %d vs %d without GC",
			withGC.Totals.LogPeakBytes, noGC.Totals.LogPeakBytes)
	}
	// A late failure after heavy pruning must still recover correctly:
	// everything pruned was covered by a stable checkpoint.
	failed := runStencil(t, core.New(), edgeAssign, iters, ckpt, []failure.Event{{
		Ranks: []int{12},
		When:  failure.Trigger{AfterCheckpoints: 10},
	}})
	sameResults(t, withGC, failed, "failure after GC pruning")
}

// TestSingleClusterDegeneratesToCoordinated checks the K=1 corner: no
// logging, no orphans, plain coordinated restart semantics.
func TestSingleClusterDegeneratesToCoordinated(t *testing.T) {
	assign := make([]int, 8)
	clean := runStencil(t, core.New(), assign, 8, 3, nil)
	if clean.Totals.LoggedMsgs != 0 {
		t.Fatalf("K=1 logged %d messages", clean.Totals.LoggedMsgs)
	}
	failed := runStencil(t, core.New(), assign, 8, 3, []failure.Event{{
		Ranks: []int{3},
		When:  failure.Trigger{AfterCheckpoints: 1},
	}})
	if failed.Rounds[0].RolledBack != 8 {
		t.Fatalf("K=1 rollback %d, want all 8", failed.Rounds[0].RolledBack)
	}
	if failed.Rounds[0].Orphans != 0 {
		t.Fatalf("K=1 produced %d orphans", failed.Rounds[0].Orphans)
	}
	sameResults(t, clean, failed, "K=1")
}

// TestSingletonClustersFullLogging checks the K=NP corner used by the
// message-logging baseline: everything is logged, a failure rolls back
// exactly one rank.
func TestSingletonClustersFullLogging(t *testing.T) {
	assign := []int{0, 1, 2, 3, 4, 5, 6, 7}
	clean := runStencil(t, core.New(), assign, 8, 3, nil)
	if clean.Totals.LoggedMsgs != clean.Totals.AppSends {
		t.Fatalf("singletons logged %d of %d messages", clean.Totals.LoggedMsgs, clean.Totals.AppSends)
	}
	failed := runStencil(t, core.New(), assign, 8, 3, []failure.Event{{
		Ranks: []int{3},
		When:  failure.Trigger{AfterCheckpoints: 1},
	}})
	if failed.Rounds[0].RolledBack != 1 {
		t.Fatalf("singleton rollback %d, want 1", failed.Rounds[0].RolledBack)
	}
	sameResults(t, clean, failed, "singletons")
}

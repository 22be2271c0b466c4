package mpi_test

// A run's one driver resumes its ranks in an order the run alone fixes, so
// what once followed goroutine scheduling no longer moves with the number
// of cores.

import (
	"runtime"
	"testing"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

// mailboxRaceRun is one run of the single-failure repro whose makespan once
// depended on real time: Ring(8, 1024) at np = 16 in four clusters of
// four, a checkpoint every step into a bandwidth-modelled memory store,
// and rank 3 failing after its fifth send. Whether a survivor's GCAck,
// sent after the round starts, was wiped by the kill or delivered after
// the restart followed goroutine scheduling.
func mailboxRaceRun(t *testing.T) *mpi.Result {
	t.Helper()
	assign := make([]int, 16)
	for r := range assign {
		assign[r] = r / 4
	}
	res, err := mpi.Run(mpi.Config{
		NP:              16,
		Topo:            rollback.NewTopology(assign),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		Store:           checkpoint.NewMemStore(2e9, 2e9),
		CheckpointEvery: 1,
		Failures:        []failure.Event{{Ranks: []int{3}, When: failure.Trigger{AfterSends: 5}}},
	}, apps.Ring(8, 1024))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleFailureMailboxReproducible: thirty runs of the repro at each of
// GOMAXPROCS 1, 2 and 8 give one makespan. The value is not pinned: making
// what a killed rank loses a function of virtual time will move it.
func TestSingleFailureMailboxReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seen := map[int64]int{}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 30; i++ {
			seen[int64(mailboxRaceRun(t).Makespan)]++
		}
	}
	if len(seen) != 1 {
		t.Errorf("makespans (ns: runs) over GOMAXPROCS 1, 2 and 8: %v, want one", seen)
	}
	t.Logf("makespans (ns: runs): %v", seen)
}

// TestPlaneCountersSchedulingIndependent: a one-failure HydEE run does the
// same plane work, counter for counter, at GOMAXPROCS 1, 2 and 8.
func TestPlaneCountersSchedulingIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := mailboxRaceRun(t).Plane
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 2; i++ {
			if got := mailboxRaceRun(t).Plane; got != want {
				t.Errorf("GOMAXPROCS=%d run %d: plane counters %+v, want %+v", procs, i, got, want)
			}
		}
	}
}

// TestComputeMovesNoFrontier: a rank's frontier reaches the plane only
// with its next wait or event, so local compute costs no plane mutation.
// Two ranks compute n times and then exchange one message; the run does
// the same plane work for n = 1 and n = 100.
func TestComputeMovesNoFrontier(t *testing.T) {
	mutations := func(n int) int64 {
		res, err := mpi.Run(mpi.Config{NP: 2, Model: netmodel.Myrinet10G()}, func(c *mpi.Comm) error {
			for i := 0; i < n; i++ {
				if err := c.Compute(1000); err != nil {
					return err
				}
			}
			peer := 1 - c.Rank()
			if err := c.Send(peer, 1, []byte{byte(c.Rank())}); err != nil {
				return err
			}
			_, _, err := c.Recv(peer, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Plane.Mutations
	}
	if one, hundred := mutations(1), mutations(100); one != hundred {
		t.Errorf("plane mutations: %d after 1 compute, %d after 100, want equal", one, hundred)
	}
}

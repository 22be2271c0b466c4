package mpi_test

import (
	"os"
	"testing"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/rollback"
)

// TestDebugRecovery is a verbose variant of the recovery smoke test, gated
// behind HYDEE_DEBUG for interactive debugging of recovery deadlocks.
func TestDebugRecovery(t *testing.T) {
	if os.Getenv("HYDEE_DEBUG") == "" {
		t.Skip("set HYDEE_DEBUG=1 to run")
	}
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	res, err := mpi.Run(mpi.Config{
		NP: 6, Topo: topo, Protocol: core.New(),
		CheckpointEvery: 3,
		Failures: []failure.Event{{
			Ranks: []int{2},
			When:  failure.Trigger{AfterCheckpoints: 2},
		}},
		Observer: mpi.NewLogObserver(os.Stderr),
	}, ringProgram(12))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rounds: %+v", res.Rounds)
}

package rollback_test

import (
	"testing"

	"hydee/internal/apps"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

func TestCoordinatedProtocol(t *testing.T) {
	p := rollback.Coordinated()
	if p.Name() != "coord" {
		t.Fatal("misconfigured")
	}
	topo := rollback.NewTopology([]int{0, 0, 1, 1})
	scope := p.RestartScope(topo, []int{2})
	if len(scope) != 4 {
		t.Fatalf("global restart scope %v", scope)
	}
	if p.NewRecovery(nil) != nil {
		t.Fatal("coordinated restart needs no recovery coordinator")
	}
}

func TestGlobalRestartRecovers(t *testing.T) {
	run := func(sched []failure.Event) *mpi.Result {
		res, err := mpi.Run(mpi.Config{
			NP:              8,
			Topo:            rollback.SingleCluster(8),
			Protocol:        rollback.Coordinated(),
			Model:           netmodel.Myrinet10G(),
			CheckpointEvery: 3,
			Failures:        sched,
		}, apps.Stencil2D(9, 8192))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	if clean.Totals.LoggedMsgs != 0 || clean.Totals.PiggyBytes != 0 {
		t.Fatalf("coordinated baseline must not log or piggyback: %+v", clean.Totals)
	}
	failed := run([]failure.Event{{
		Ranks: []int{5},
		When:  failure.Trigger{AfterCheckpoints: 2},
	}})
	if failed.Totals.Restarts != 8 {
		t.Fatalf("restarts %d, want all 8 (no containment)", failed.Totals.Restarts)
	}
	for r := 0; r < 8; r++ {
		if clean.Results[r] != failed.Results[r] {
			t.Fatalf("rank %d diverged after global restart", r)
		}
	}
}

func TestGlobalRestartWithoutCheckpoint(t *testing.T) {
	res, err := mpi.Run(mpi.Config{
		NP:       4,
		Topo:     rollback.SingleCluster(4),
		Protocol: rollback.Coordinated(),
		Failures: []failure.Event{{
			Ranks: []int{1},
			When:  failure.Trigger{AfterSends: 3},
		}},
	}, apps.Ring(5, 512))
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Restarts != 4 {
		t.Fatalf("restarts %d", res.Totals.Restarts)
	}
	clean, err := mpi.Run(mpi.Config{
		NP: 4, Topo: rollback.SingleCluster(4), Protocol: rollback.Coordinated(),
	}, apps.Ring(5, 512))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if clean.Results[r] != res.Results[r] {
			t.Fatalf("rank %d diverged after from-scratch global restart", r)
		}
	}
}

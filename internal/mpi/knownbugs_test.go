//go:build knownbugs

package mpi_test

// The two multi-failure bugs ROADMAP item 2 has to fix, kept reproducible
// until it does. `make known-bugs` runs them and inverts the result: it
// succeeds while at least one still fails here. Once both pass, delete the
// build tag and fold them into `make determinism`.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

// TestKnownBugReverseOrderArrival is TestReverseOrderDetectionsMerge-
// Reproducible without the one-thread pin: on two or more cores, which
// victim opens the round follows the real-time arrival order of the two
// evFail events, and 5-13 runs in 100 pick the other one.
func TestKnownBugReverseOrderArrival(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cfg, prog := reverseOrderScenario()
	var first *mpi.Result
	for i := 0; i < 300; i++ {
		res, err := mpi.Run(cfg, prog)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if virtualOnly(res); first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("iteration %d diverged from iteration 0: makespan %v vs %v, rounds %+v vs %+v",
				i, res.Makespan, first.Makespan, res.Rounds, first.Rounds)
		}
	}
}

// TestKnownBugSameClusterTwiceDeadlock fails cluster 5 twice (ranks 46 and
// 45) after a failure in cluster 3: round 2 ends up recovering with an
// empty drain set and nothing queued — the `recovering × probe quiescent,
// nothing pending` cell of the round machine — until the watchdog fires.
func TestKnownBugSameClusterTwiceDeadlock(t *testing.T) {
	assign := make([]int, 64)
	for r := range assign {
		assign[r] = r / 8
	}
	after := func(ckpts, rank int) failure.Event {
		return failure.Event{Ranks: []int{rank}, When: failure.Trigger{AfterCheckpoints: ckpts}}
	}
	_, err := mpi.Run(mpi.Config{
		NP:              64,
		Topo:            rollback.NewTopology(assign),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		CheckpointEvery: 1,
		Failures:        []failure.Event{after(2, 30), after(5, 46), after(8, 45)},
		Watchdog:        3 * time.Second,
	}, apps.Ring(24, 4096))
	if errors.Is(err, mpi.ErrDeadlock) {
		report, _, _ := strings.Cut(err.Error(), "\ndelivery plane:")
		t.Fatalf("still deadlocks: %s", report)
	}
	if err != nil {
		t.Fatal(err)
	}
}

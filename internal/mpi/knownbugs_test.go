//go:build knownbugs

package mpi_test

// The open multi-failure bug, kept reproducible until it is fixed. `make
// known-bugs` runs it and inverts the result: it succeeds while the bug
// still fails here. Once it passes, delete the build tag and fold the test
// into `make determinism`.

import (
	"errors"
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

// TestKnownBugSameClusterTwiceDeadlock fails cluster 5 twice (ranks 46 and
// 45) after a failure in cluster 3: round 2 ends up recovering with an
// empty drain set and nothing queued, so no input of the round machine is
// left to come and no rank can run: the run ends in ErrDeadlock at once.
//
// Measured diagnosis: the rounds do not overlap. Round 0 runs 28–62µs,
// round 1 runs 122–155µs, and round 2 opens at 270µs. All 64 Reports reach
// round 2's coordinator. Round 2 restores cluster 5 at date 24, with ranks
// 40–43 in phase 3 and ranks 44–47 in phase 2. Rank 48 holds two phase-2
// orphans from rank 47, at dates 25 and 27, so the coordinator's count of
// two is correct. Rank 47 suppresses date 25, delivers from rank 46 and
// then blocks in checkpoint seq 13, as ranks 45 and 46 do: all three wait
// for markers from ranks 40–44. Ranks 40–43 stay gated until no phase-2
// orphan is outstanding, and rank 44 waits on rank 43. The date-27 orphan
// is rank 47's first send after that checkpoint, so its notification
// never comes. The deadlock is a cycle between Algorithm 4's phase gate
// and the blocking intra-cluster marker exchange, not an orphan-count
// error.
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

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
// empty drain set and nothing queued — the `recovering × probe quiescent,
// nothing pending` cell of the round machine — until the watchdog fires.
//
// Measured diagnosis: the rounds do not overlap. Round 0 runs 28–62µs,
// round 1 runs 122–155µs, and round 2 opens at 270µs. All 64 Reports reach
// round 2's coordinator; it then counts two phase-2 orphans and receives
// only one OrphanNotification. So this is a HydEE orphan-accounting bug,
// not a round-machine bug: the hypothesis that round 1's restarted
// incarnations are re-doomed below their resume clocks is refuted.
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

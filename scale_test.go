package hydee_test

// The ROADMAP scale point: a 1024-rank HydEE smoke workload; the
// benchmark's stencil1024-onefail workload is the same shape. `make profile`
// profiles it. The test logs the delivery plane's work counters and holds
// the plane to its serve rule: whoever holds the plane lock finishes the
// waits its mutation unblocks, so every park is served exactly once and no
// waiter ever re-parks, and to its take rule: the markers of a checkpoint's
// flush are consumed inside the waits that pop them (internal/transport,
// DESIGN.md "Concurrency and determinism").

import (
	"context"
	"testing"

	"hydee"
)

// TestHydEESmoke1024 runs HydEE at np=1024 (32 clusters of 32) through a
// checkpoint, a failure and a recovery round, and checks the protocol's
// containment claim holds at scale — exactly one cluster rolls back —,
// that the plane served every park exactly once and that it kept pops.
func TestHydEESmoke1024(t *testing.T) {
	if raceEnabled {
		t.Skip("np=1024 smoke workload skipped under the race detector (~25x slower, no added coverage)")
	}
	c := smokeRun(t, 1024).Plane
	if c.Served != c.Parks {
		t.Errorf("%d parks, %d served at run end: every park must be served exactly once", c.Parks, c.Served)
	}
	if c.Kept == 0 {
		t.Errorf("no pop kept: the marker flush no longer runs in the receives' take callbacks")
	}
	t.Logf("kept/delivered: %d/%d = %.3f", c.Kept, c.Delivered, float64(c.Kept)/float64(c.Delivered))
}

// smokeRun is the smoke workload at np ranks in clusters of 32.
func smokeRun(t *testing.T, np int) *hydee.Result {
	t.Helper()
	const clusterSize = 32
	assign := make([]int, np)
	for r := range assign {
		assign[r] = r / clusterSize
	}
	eng, err := hydee.New(
		hydee.WithTopology(hydee.NewTopology(assign)),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithCheckpointEvery(2),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{np / 2}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), hydee.StencilProgram(4, 256))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plane counters: %+v", res.Plane)
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %+v, want exactly 1", res.Rounds)
	}
	if rb := res.Rounds[0].RolledBack; rb != clusterSize {
		t.Errorf("rolled back %d ranks, want the failed cluster only (%d): containment broke at scale", rb, clusterSize)
	}
	if got := len(res.Results); got != np {
		t.Errorf("%d rank results, want %d", got, np)
	}
	if res.Totals.Checkpoints < int64(np) {
		t.Errorf("only %d checkpoints at np=%d; schedule did not fire", res.Totals.Checkpoints, np)
	}
	return res
}

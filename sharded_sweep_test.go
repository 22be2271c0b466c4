package hydee

// Determinism and behaviour of the E5-extension sharded-store sweep:
// the sweep output must be byte-reproducible run-to-run (the make
// determinism target runs these twice under -race), and cluster-placed
// shards must actually relieve the checkpoint I/O burst.

import (
	"context"
	"reflect"
	"testing"
)

// burstBase is the E5 scenario of the tests below: cg on 16 ranks, 8
// iterations, a checkpoint every 4.
func burstBase(t *testing.T) ExperimentSpec {
	t.Helper()
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	return ExperimentSpec{Kernel: k, Params: KernelParams{NP: 16, Iters: 8}, Assign: cgAssign(t), CheckpointEvery: 4}
}

// TestE5ShardedSweepReproducible runs the sharded burst sweep twice and
// requires byte-identical formatted output — makespans, queue backlogs
// and volumes included. The second run's base carries a failure plan,
// which CheckpointBurst ignores: E5 measures failure-free bursts, so the
// rows must not move.
func TestE5ShardedSweepReproducible(t *testing.T) {
	runOnce := func(base ExperimentSpec) string {
		rows, err := CheckpointBurst(context.Background(), base, 4e9, 4)
		if err != nil {
			t.Fatal(err)
		}
		return FormatE5(rows)
	}
	base := burstBase(t)
	withPlan := base
	withPlan.Failures = []FailureEvent{{Ranks: []int{8}, When: FailureTrigger{AfterCheckpoints: 1}}}
	a, b := runOnce(base), runOnce(withPlan)
	if a != b {
		t.Errorf("sharded sweep output not byte-reproducible, or moved by base.Failures:\n--- run 1\n%s\n--- run 2 (with a failure plan)\n%s", a, b)
	}
	t.Logf("\n%s", a)
}

// TestE5ShardedRelievesBurst checks the headline claim of the extension:
// per-cluster shard placement cuts the worst write backlog versus one
// shared store, without the staggered schedule's skew.
func TestE5ShardedRelievesBurst(t *testing.T) {
	rows, err := CheckpointBurst(context.Background(), burstBase(t), 4e9, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"coord-simultaneous", "hydee-simultaneous", "hydee-staggered", "hydee-sharded:4"}
	byName := map[string]E5Row{}
	for i, r := range rows {
		if i >= len(want) || r.Config != want[i] {
			t.Fatalf("row %d is %q; want the rows %v", i, r.Config, want)
		}
		byName[r.Config] = r
	}
	shared, sharded := byName["hydee-simultaneous"], byName["hydee-sharded:4"]
	if shared.MaxQueue == 0 {
		t.Fatal("shared store saw no burst; the scenario does not exercise contention")
	}
	if sharded.MaxQueue >= shared.MaxQueue {
		t.Errorf("sharded MaxQueue %v >= shared %v; per-cluster placement did not relieve the burst",
			sharded.MaxQueue, shared.MaxQueue)
	}
	if sharded.CkptBytes != shared.CkptBytes {
		t.Errorf("checkpoint volume differs: sharded %d vs shared %d bytes", sharded.CkptBytes, shared.CkptBytes)
	}
}

// TestShardedStoreRunReproducible runs a failure-and-recovery scenario
// over the sharded store twice and requires the documented stable
// observables — makespan, recovery rounds, store stats, digests — to be
// byte-identical. Two deliberate choices keep the scenario inside the
// determinism guarantee (both limitations are recorded in DESIGN.md
// "Concurrency and determinism" and ROADMAP.md):
//   - the trigger fires mid-iteration, a safe distance after the first
//     checkpoint wave: a failure landing while a scope peer's
//     bandwidth-delayed checkpoint write is still queued races the kill
//     against the save in real time, making the restored sequence
//     scheduling-dependent;
//   - traffic totals of the doomed incarnations (Totals/PairBytes) are
//     not compared: a rolled-back peer may meter a send or two more or
//     fewer depending on when the kill lands on its goroutine.
func TestShardedStoreRunReproducible(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	mkSpec := func() ExperimentSpec {
		return ExperimentSpec{
			Kernel: k, Params: KernelParams{NP: 16, Iters: 8},
			Proto: ProtoHydEE, Assign: assign, CheckpointEvery: 3,
			NewStore: StoreSpec{Spec: "sharded:4", BPS: 4e9}.New,
			Failures: []FailureEvent{{
				Ranks: []int{8},
				When:  FailureTrigger{AfterSends: 44},
			}},
		}
	}
	a, err := runExperiment(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runExperiment(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("makespan not reproducible: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Errorf("recovery stats not reproducible:\n  %+v\n  %+v", a.Rounds, b.Rounds)
	}
	if a.Store != b.Store {
		t.Errorf("store stats not reproducible: %+v vs %+v", a.Store, b.Store)
	}
	if !reflect.DeepEqual(a.Digests, b.Digests) {
		t.Errorf("digests not reproducible")
	}
	if len(a.Rounds) != 1 || a.Store.Loads == 0 {
		t.Fatalf("scenario drifted: rounds=%+v loads=%d; want one round restoring from the sharded store",
			a.Rounds, a.Store.Loads)
	}
}

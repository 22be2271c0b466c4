package hydee_test

// Tests for the public Store surface: WithStore pinning across engine
// reuse, WithStoreSpec per-run isolation with default per-cluster
// placement, third-party Store implementations, and the typed
// ErrCheckpointLost path through a custom store.

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"hydee"
)

// trackingStore is a third-party Store implementation: it delegates to a
// built-in backend and counts operations.
type trackingStore struct {
	hydee.Store
	saves, loads atomic.Int64
}

func (st *trackingStore) Save(s *hydee.Snapshot, at hydee.Time) (hydee.Time, error) {
	st.saves.Add(1)
	return st.Store.Save(s, at)
}

func (st *trackingStore) Load(rank, seq int, at hydee.Time) (*hydee.Snapshot, hydee.Time, bool) {
	st.loads.Add(1)
	return st.Store.Load(rank, seq, at)
}

// amnesiacStore announces sequences it cannot load — the condition the
// runtime must surface as ErrCheckpointLost instead of silently
// restarting from the initial state.
type amnesiacStore struct{ hydee.Store }

func (st amnesiacStore) Load(rank, seq int, at hydee.Time) (*hydee.Snapshot, hydee.Time, bool) {
	return nil, at, false
}

// failingEngineOpts configures a 2-cluster run whose rank 2 fails after
// its second checkpoint: by then every cluster member has completed
// sequence 1, so the recovery round is guaranteed to restore from a
// stored snapshot (exercising Load) rather than the initial state.
func failingEngineOpts(extra ...hydee.Option) []hydee.Option {
	opts := []hydee.Option{
		hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithCheckpointEvery(2),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{2}, When: hydee.FailureTrigger{AfterCheckpoints: 2},
		}),
	}
	return append(opts, extra...)
}

// TestEngineReuseWithPinnedStore reuses one engine with one WithStore
// store across sequential failure-and-recovery runs: results must stay
// bit-identical run over run (reruns of the same program overwrite the
// same sequences rather than diverging), and the pinned third-party
// store must see every run's traffic.
func TestEngineReuseWithPinnedStore(t *testing.T) {
	pinned := &trackingStore{Store: hydee.NewMemStore(1e9, 1e9)}
	// CheckpointEvery(1) drives run 1's sequences well past the store's
	// GC horizon (historyKeep), so this also regresses the streak-reset
	// rule: without it, run 2's restarted low sequences would be pruned
	// against run 1's high-water mark and the rerun would abort with
	// ErrCheckpointLost.
	eng, err := hydee.New(failingEngineOpts(
		hydee.WithStore(pinned),
		hydee.WithCheckpointEvery(1),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	prog := hydee.StencilProgram(8, 4096)
	ctx := context.Background()
	first, err := eng.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rounds) != 1 {
		t.Fatalf("rounds = %+v, want 1", first.Rounds)
	}
	savesAfterFirst := pinned.saves.Load()
	if savesAfterFirst == 0 || pinned.loads.Load() == 0 {
		t.Fatalf("pinned store unused: saves=%d loads=%d", savesAfterFirst, pinned.loads.Load())
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Run(ctx, prog)
		if err != nil {
			t.Fatalf("reuse run %d: %v", i, err)
		}
		if len(res.Rounds) != 1 {
			t.Fatalf("reuse run %d: rounds = %+v", i, res.Rounds)
		}
		for r := range res.Results {
			if res.Results[r] != first.Results[r] {
				t.Errorf("reuse run %d: rank %d digest diverged with pinned store", i, r)
			}
		}
	}
	if got := pinned.saves.Load(); got <= savesAfterFirst {
		t.Errorf("pinned store not reused: %d saves after 3 runs, %d after 1", got, savesAfterFirst)
	}
}

// TestWithStoreSpecFreshPerRun shows the registry path keeps sequential
// runs isolated: each Run builds a fresh store, so a run never observes
// the previous run's snapshots.
func TestWithStoreSpecFreshPerRun(t *testing.T) {
	var built []*trackingStore
	name := freshName("fresh-per-run-test")
	if err := hydee.RegisterStore(name, func(o hydee.StoreOptions) (hydee.Store, error) {
		st := &trackingStore{Store: hydee.NewMemStore(o.BPS, o.BPS)}
		built = append(built, st)
		return st, nil
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := hydee.New(failingEngineOpts(hydee.WithStoreSpec(hydee.StoreSpec{Spec: name}))...)
	if err != nil {
		t.Fatal(err)
	}
	prog := hydee.StencilProgram(8, 4096)
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), prog); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if len(built) != 2 {
		t.Fatalf("factory built %d stores over 2 runs, want a fresh store per run", len(built))
	}
	if built[0] == built[1] {
		t.Fatal("same store instance reused across runs")
	}
}

// TestWithStoreSpecUnknown verifies name resolution fails at option time.
func TestWithStoreSpecUnknown(t *testing.T) {
	_, err := hydee.New(
		hydee.WithRanks(2),
		hydee.WithStoreSpec(hydee.StoreSpec{Spec: "glacier"}),
	)
	var se *hydee.StoreSpecError
	if !errors.As(err, &se) {
		t.Fatalf("unknown store name: error %v, want a *StoreSpecError", err)
	}
}

// TestStoreBandwidthRejected: a negative or non-finite storage bandwidth
// is an error on every path that resolves a store — a StoreSpec probe, a
// sweep spec, StoreSpec.New, a third-party backend and a WithStoreSpec
// engine at New — and never silently stands for free storage.
func TestStoreBandwidthRejected(t *testing.T) {
	thirdParty := freshName("bandwidth-test")
	if err := hydee.RegisterStore(thirdParty, func(o hydee.StoreOptions) (hydee.Store, error) {
		return hydee.NewMemStore(o.BPS, o.BPS), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, bps := range []float64{-1, math.NaN(), math.Inf(1)} {
		for _, spec := range []string{"mem", "sharded:4", "ec:4+2", "replica:3"} {
			if _, err := (hydee.StoreSpec{Spec: spec, BPS: bps}).Probe(); err == nil || !strings.Contains(err.Error(), "bandwidth") {
				t.Errorf("Probe(%s, %g): error %v, want a bandwidth error", spec, bps, err)
			}
		}
		sweep := hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", StoreSpec: hydee.StoreSpec{BPS: bps}}
		if _, err := sweep.Experiment(); err == nil || !strings.Contains(err.Error(), "bandwidth") {
			t.Errorf("SweepSpec store_bps %g: error %v, want a bandwidth error", bps, err)
		}
		if _, err := (hydee.StoreSpec{Spec: "mem", BPS: bps}).New(nil); err == nil || !strings.Contains(err.Error(), "bandwidth") {
			t.Errorf("StoreSpec.New bandwidth %g: error %v, want a bandwidth error", bps, err)
		}
		if _, err := (hydee.StoreSpec{Spec: thirdParty, BPS: bps}).New(nil); err == nil || !strings.Contains(err.Error(), "bandwidth") {
			t.Errorf("third-party store bandwidth %g: error %v, want a bandwidth error", bps, err)
		}
		if _, err := hydee.New(hydee.WithRanks(4),
			hydee.WithStoreSpec(hydee.StoreSpec{Spec: "sharded:2", BPS: bps})); err == nil || !strings.Contains(err.Error(), "bandwidth") {
			t.Errorf("WithStoreSpec bandwidth %g: New error %v, want a bandwidth error", bps, err)
		}
	}
}

// TestWithStoreSpecShardedClusterPlacement checks the engine defaults a
// sharded store to per-cluster placement: with per-shard bandwidth, two
// clusters checkpointing simultaneously into 2 shards see no cross-shard
// queueing (MaxQueue stays below what one shared link of the same
// bandwidth produces).
func TestWithStoreSpecShardedClusterPlacement(t *testing.T) {
	run := func(opts ...hydee.Option) hydee.StoreStats {
		t.Helper()
		base := []hydee.Option{
			hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
			hydee.WithProtocol(hydee.HydEE()),
			hydee.WithCheckpointEvery(2),
		}
		eng, err := hydee.New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), hydee.StencilProgram(8, 1<<16))
		if err != nil {
			t.Fatal(err)
		}
		return res.StoreStats
	}
	const bps = 5e8
	shared := run(hydee.WithStoreSpec(hydee.StoreSpec{Spec: "mem", BPS: bps}))
	sharded := run(hydee.WithStoreSpec(hydee.StoreSpec{Spec: "sharded:2", BPS: bps}))
	if shared.Saves != sharded.Saves || shared.SavedBytes != sharded.SavedBytes {
		t.Errorf("store traffic differs: shared %+v vs sharded %+v", shared, sharded)
	}
	if sharded.MaxQueue >= shared.MaxQueue {
		t.Errorf("cluster-placed shards should relieve the burst: sharded MaxQueue %v >= shared %v",
			sharded.MaxQueue, shared.MaxQueue)
	}
}

// TestCheckpointLostTyped drives the ErrCheckpointLost path through a
// third-party store: the store announces checkpoints it cannot load, and
// the recovery round must abort with a typed *RunError instead of
// silently restarting from the initial state.
func TestCheckpointLostTyped(t *testing.T) {
	eng, err := hydee.New(failingEngineOpts(
		hydee.WithStore(amnesiacStore{hydee.NewMemStore(0, 0)}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), hydee.StencilProgram(8, 4096))
	if !errors.Is(err, hydee.ErrCheckpointLost) {
		t.Fatalf("want ErrCheckpointLost, got %v", err)
	}
	var re *hydee.RunError
	if !errors.As(err, &re) || re.Phase != hydee.PhaseRecovery {
		t.Errorf("want *RunError in phase %q, got %#v", hydee.PhaseRecovery, err)
	}
}

// TestShardLossMatrix extends the lying-store scenario to real shard
// loss across every backend: rank 2 (cluster 1) fails after its second
// checkpoint while a FaultyStore has killed some of the storage targets
// from the start of the run. Losses within a backend's redundancy must
// recover (digest-identical to the unfaulted run); losses beyond it
// must abort with the typed ErrCheckpointLost in the recovery phase,
// never restart silently from the initial state.
func TestShardLossMatrix(t *testing.T) {
	assign := []int{0, 0, 1, 1} // rank 2, the victim, is in cluster 1
	const bps = 1e9
	place := func(n int) func(rank int) int {
		return func(rank int) int { return assign[rank] % n }
	}
	mk := func(t *testing.T, build func() (hydee.Store, error), kill ...int) hydee.Store {
		t.Helper()
		inner, err := build()
		if err != nil {
			t.Fatal(err)
		}
		faults := make([]hydee.ShardFault, len(kill))
		for i, sh := range kill {
			// AtVT 1 kills the shard from (virtually) the start of the
			// run: its checkpoint writes are dropped, its restore reads
			// refused.
			faults[i] = hydee.ShardFault{Shard: sh, AtVT: 1, Kind: hydee.FaultKill}
		}
		st, err := hydee.NewFaultyStore(inner, faults...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sharded := func() (hydee.Store, error) { return hydee.NewShardedStore(2, bps, bps, place(2)), nil }
	ec := func() (hydee.Store, error) { return hydee.NewECStore(2, 1, bps, bps, place(3)) }
	replica := func() (hydee.Store, error) { return hydee.NewReplicatedStore(2, bps, bps, place(2)) }

	// The unfaulted reference run: its digests are what every surviving
	// faulted run must reproduce.
	refEng, err := hydee.New(failingEngineOpts(hydee.WithStore(hydee.NewMemStore(bps, bps)))...)
	if err != nil {
		t.Fatal(err)
	}
	prog := hydee.StencilProgram(8, 4096)
	ref, err := refEng.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		store   func(t *testing.T) hydee.Store
		survive bool
	}{
		// A whole-store kill generalizes the amnesiac store above.
		{"mem/kill-all", func(t *testing.T) hydee.Store {
			return mk(t, func() (hydee.Store, error) { return hydee.NewMemStore(bps, bps), nil }, 0)
		}, false},
		// Plain sharding has no redundancy: losing the victim cluster's
		// shard is fatal, losing only the bystander cluster's is not.
		{"sharded2/lose-victim-shard", func(t *testing.T) hydee.Store { return mk(t, sharded, 1) }, false},
		{"sharded2/lose-bystander-shard", func(t *testing.T) hydee.Store { return mk(t, sharded, 0) }, true},
		// ec:2+1 absorbs any m=1 losses and no more.
		{"ec2+1/lose-1", func(t *testing.T) hydee.Store { return mk(t, ec, 1) }, true},
		{"ec2+1/lose-2", func(t *testing.T) hydee.Store { return mk(t, ec, 1, 2) }, false},
		// replica:2 absorbs any single replica loss and no more.
		{"replica2/lose-1", func(t *testing.T) hydee.Store { return mk(t, replica, 1) }, true},
		{"replica2/lose-all", func(t *testing.T) hydee.Store { return mk(t, replica, 0, 1) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := hydee.New(failingEngineOpts(hydee.WithStore(tc.store(t)))...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), prog)
			if !tc.survive {
				if !errors.Is(err, hydee.ErrCheckpointLost) {
					t.Fatalf("want ErrCheckpointLost, got %v", err)
				}
				var re *hydee.RunError
				if !errors.As(err, &re) || re.Phase != hydee.PhaseRecovery {
					t.Errorf("want *RunError in phase %q, got %#v", hydee.PhaseRecovery, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("loss within redundancy aborted the run: %v", err)
			}
			if len(res.Rounds) != 1 {
				t.Fatalf("rounds = %+v, want 1", res.Rounds)
			}
			for r := range res.Results {
				if res.Results[r] != ref.Results[r] {
					t.Errorf("rank %d digest diverged after degraded recovery", r)
				}
			}
		})
	}
}

package hydee_test

// Tests for the Engine-based public API: option application, engine reuse,
// context cancellation with goroutine reaping, registries, typed errors
// and lifecycle observation.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hydee"
)

// modelNamed selects a model by name the way an embedder does: resolve
// the name, then pass the value; a name that does not resolve fails New.
func modelNamed(name string) hydee.Option {
	m, err := hydee.ModelByName(name)
	if err != nil {
		return func(*hydee.Engine) error { return err }
	}
	return hydee.WithModel(m)
}

func TestEngineOptionOrder(t *testing.T) {
	// Later options override earlier ones.
	eng, err := hydee.New(
		hydee.WithRanks(2),
		hydee.WithCheckpointEvery(3),
		hydee.WithCheckpointEvery(7),
		modelNamed("ideal"),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithProtocol(hydee.Coordinated()),
		hydee.WithProtocol(hydee.HydEE()),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	if cfg.CheckpointEvery != 7 {
		t.Errorf("CheckpointEvery = %d, want last-wins 7", cfg.CheckpointEvery)
	}
	if cfg.Model.Name() != hydee.Myrinet10G().Name() {
		t.Errorf("Model = %q, want the later Myrinet10G option", cfg.Model.Name())
	}
	if cfg.Protocol.Name() != "hydee" {
		t.Errorf("Protocol = %q, want the later HydEE option", cfg.Protocol.Name())
	}
}

func TestEngineOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []hydee.Option
	}{
		{"no ranks", nil},
		{"bad ranks", []hydee.Option{hydee.WithRanks(-1)}},
		{"nil topology", []hydee.Option{hydee.WithTopology(nil)}},
		{"unknown model", []hydee.Option{hydee.WithRanks(2), modelNamed("infiniband")}},
		{"negative ckpt", []hydee.Option{hydee.WithRanks(2), hydee.WithCheckpointEvery(-1)}},
		{"topology mismatch", []hydee.Option{hydee.WithRanks(3), hydee.WithTopology(hydee.SingleCluster(2))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := hydee.New(tc.opts...); err == nil {
				t.Fatal("New accepted an invalid configuration")
			}
		})
	}
}

func TestEngineRanksDerivedFromTopology(t *testing.T) {
	eng, err := hydee.New(hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})))
	if err != nil {
		t.Fatal(err)
	}
	if np := eng.Config().NP; np != 4 {
		t.Errorf("NP = %d, want 4 from the topology", np)
	}
}

func TestEngineReuseSequentialRuns(t *testing.T) {
	topo := hydee.NewTopology([]int{0, 0, 1, 1})
	eng, err := hydee.New(
		hydee.WithTopology(topo),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithCheckpointEvery(3),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{2}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	prog := hydee.StencilProgram(6, 4096)
	ctx := context.Background()
	first, err := eng.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Run(ctx, prog)
		if err != nil {
			t.Fatalf("reuse run %d: %v", i, err)
		}
		// Fresh store and fresh plan per run: the failure fires every
		// time and the recovered digests stay bit-identical (makespan of a
		// failure run may vary with control-message scheduling).
		if len(res.Rounds) != 1 {
			t.Fatalf("reuse run %d: rounds %+v, want the plan to fire afresh", i, res.Rounds)
		}
		for r := range res.Results {
			if res.Results[r] != first.Results[r] {
				t.Errorf("reuse run %d: rank %d digest diverged", i, r)
			}
		}
	}

	// Without checkpoint/control traffic a run is fully deterministic,
	// makespan included (out-of-band marker arrivals interleave clock
	// merges nondeterministically, which is why the checkpointed case
	// above compares digests only).
	clean, err := hydee.New(
		hydee.WithTopology(topo),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := clean.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clean.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Totals != b.Totals {
		t.Errorf("failure-free reuse diverged: %v/%v vs %v/%v", a.Makespan, a.Totals, b.Makespan, b.Totals)
	}
}

func TestEngineCancelReturnsFastAndReapsGoroutines(t *testing.T) {
	// A deliberately livelocked program: the ranks pass a token around
	// the ring forever (a deadlocked one would end at once in
	// ErrDeadlock). Cancellation must unwind every rank, reap every
	// goroutine and return well within 100ms.
	livelocked := func(c *hydee.Comm) error {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		if c.Rank() == 0 {
			if err := c.Send(next, 1, nil); err != nil {
				return err
			}
		}
		for {
			if _, _, err := c.Recv(prev, 1); err != nil {
				return err
			}
			if err := c.Send(next, 1, nil); err != nil {
				return err
			}
		}
	}
	eng, err := hydee.New(hydee.WithRanks(16))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, livelocked)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the token go round
	start := time.Now()
	cancel()
	var runErr error
	select {
	case runErr = <-errCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Run returned %v after cancel, want < 100ms", took)
	}
	if !errors.Is(runErr, hydee.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", runErr)
	}
	var re *hydee.RunError
	if !errors.As(runErr, &re) || re.Phase != hydee.PhaseSupervise {
		t.Errorf("want *RunError in phase %q, got %#v", hydee.PhaseSupervise, runErr)
	}
	// All rank goroutines must be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEngineObserverLifecycle(t *testing.T) {
	var mu sync.Mutex
	counts := map[hydee.RunEventKind]int{}
	eng, err := hydee.New(
		hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithCheckpointEvery(3),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{2}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
		}),
		hydee.WithObserver(hydee.ObserverFunc(func(ev hydee.RunEvent) {
			mu.Lock()
			counts[ev.Kind]++
			mu.Unlock()
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), hydee.StencilProgram(6, 4096)); err != nil {
		t.Fatal(err)
	}
	if counts[hydee.EvRunStart] != 1 || counts[hydee.EvRunComplete] != 1 {
		t.Errorf("run boundary events: %v", counts)
	}
	if counts[hydee.EvCheckpoint] == 0 {
		t.Error("no checkpoint events")
	}
	if counts[hydee.EvFailure] != 1 {
		t.Errorf("failure events = %d, want 1", counts[hydee.EvFailure])
	}
	if counts[hydee.EvRecoveryStart] != 1 || counts[hydee.EvRecoveryEnd] != 1 {
		t.Errorf("recovery events: %v", counts)
	}
	if counts[hydee.EvRankFinished] < 4 {
		t.Errorf("rank-finished events = %d, want >= 4", counts[hydee.EvRankFinished])
	}
}

func TestRegistries(t *testing.T) {
	for _, name := range []string{"myrinet10g", "myrinet", "tcpgige", "gige", "ideal", "Ideal"} {
		m, err := hydee.ModelByName(name)
		if err != nil || m == nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := hydee.ModelByName("infiniband"); err == nil {
		t.Error("unknown model accepted")
	}
	for _, name := range []string{"native", "coord", "mlog", "hydee", "HydEE"} {
		p, err := hydee.ExperimentProtoByName(name)
		if err != nil || p.String() != strings.ToLower(name) {
			t.Errorf("ExperimentProtoByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := hydee.ExperimentProtoByName("chandy-lamport"); err == nil {
		t.Error("unknown experiment proto accepted")
	}
	if len(hydee.ExperimentProtoNames()) != 4 || len(hydee.ModelNames()) < 3 {
		t.Errorf("registry listings: %v %v", hydee.ExperimentProtoNames(), hydee.ModelNames())
	}
}

func TestCheckSendDeterminism(t *testing.T) {
	run := func(prog hydee.Program, np int) *hydee.EventRecorder {
		rec := hydee.NewEventRecorder(np)
		eng, err := hydee.New(hydee.WithRanks(np), hydee.WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), prog); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	ring := hydee.RingProgram(5, 1024)
	a, b := run(ring, 4), run(ring, 4)
	if err := hydee.CheckSendDeterminism(a, b); err != nil {
		t.Errorf("deterministic program flagged: %v", err)
	}
	// Different programs produce different send sequences.
	c := run(hydee.RingProgram(7, 1024), 4)
	err := hydee.CheckSendDeterminism(a, c)
	if !errors.Is(err, hydee.ErrNotSendDeterministic) {
		t.Errorf("want ErrNotSendDeterministic, got %v", err)
	}
}

// TestStaggeredCheckpointsRelieveStore: WithStaggeredCheckpoints spreads
// the clusters' checkpoints over the schedule, so a bandwidth-modelled
// shared store sees a shorter worst backlog than when every cluster
// checkpoints at once (E5's hydee-staggered row).
func TestStaggeredCheckpointsRelieveStore(t *testing.T) {
	k, err := hydee.KernelByName("bt")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Make(hydee.KernelParams{NP: 16, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, 16)
	for r := range assign {
		assign[r] = r / 4
	}
	run := func(opts ...hydee.Option) hydee.StoreStats {
		t.Helper()
		eng, err := hydee.New(append([]hydee.Option{
			hydee.WithTopology(hydee.NewTopology(assign)),
			hydee.WithProtocol(hydee.HydEE()),
			hydee.WithCheckpointEvery(4),
			hydee.WithStoreSpec(hydee.StoreSpec{Spec: "mem", BPS: 4e9}),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.StoreStats
	}
	atOnce, staggered := run(), run(hydee.WithStaggeredCheckpoints())
	t.Logf("max queue: at once %v, staggered %v", atOnce.MaxQueue, staggered.MaxQueue)
	if staggered.Saves == 0 {
		t.Fatal("the staggered run saved no checkpoint")
	}
	if staggered.MaxQueue >= atOnce.MaxQueue {
		t.Errorf("staggering did not shorten the store's backlog: %v staggered vs %v at once", staggered.MaxQueue, atOnce.MaxQueue)
	}
}

package mpi_test

// End-to-end tests of the virtual-time kill fence: failure rounds declare
// the scope dead at the detection timestamp, drain in-flight work at or
// below the fence, and only then kill — so the restored checkpoint
// sequence, the rolled-back incarnations' traffic and the recovery stats
// are byte-reproducible wherever the failure lands, including exact ties
// with queued checkpoint writes and failures overlapping a recovery round.

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// runFenced executes cfg/prog twice and fails unless the two results are
// indistinguishable — makespan, rounds, totals, per-rank metrics, traffic
// matrices, store stats and digests.
// virtualOnly clears the one part of a Result that is not a function of
// virtual time — the delivery plane's host-side work counters, which depend
// on goroutine scheduling — so two runs can be compared whole.
func virtualOnly(res *mpi.Result) *mpi.Result {
	res.Plane = mpi.Result{}.Plane
	return res
}

func runFenced(t *testing.T, cfg mpi.Config, prog mpi.Program) *mpi.Result {
	t.Helper()
	run := func() *mpi.Result {
		if cfg.Store != nil {
			// Stores accumulate state; each run builds its own of the same
			// shape via the spec below.
			t.Fatal("runFenced: use cfg.Store == nil and storeBPS instead")
		}
		res, err := mpi.Run(cfg, prog)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return virtualOnly(res)
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("makespan not reproducible: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Errorf("recovery stats not reproducible:\n  %+v\n  %+v", a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results differ beyond makespan/rounds:\n  %+v\n  %+v", a, b)
	}
	return a
}

// TestExactTieQueuedSaveKillReproducible pins the boundary of the fence: a
// failure detected at exactly the virtual time a scope peer's checkpoint
// write was issued must let that write complete ("at or below the fence"),
// so the whole cluster restores from the new sequence rather than racing
// between sequence 1 and the initial state.
func TestExactTieQueuedSaveKillReproducible(t *testing.T) {
	// Ranks 0,1 form cluster A, ranks 2,3 cluster B; the ideal model makes
	// every virtual stamp hand-computable (1ns minimum latency). All ranks
	// compute 100ns and checkpoint: markers merge the cluster clocks to
	// 101, so every save is issued at exactly VT 101. Rank 2 (cluster B)
	// fails at the post-save injection point of its first checkpoint, i.e.
	// at detection VT 101 — the exact issue VT of rank 3's queued save.
	cfg := mpi.Config{
		NP:              4,
		Topo:            rollback.NewTopology([]int{0, 0, 1, 1}),
		Protocol:        core.New(),
		Model:           netmodel.Ideal(),
		CheckpointEvery: 1,
		Failures: []failure.Event{{
			Ranks: []int{2},
			When:  failure.Trigger{AtVT: vtime.Time(101)},
		}},
	}
	prog := func(c *mpi.Comm) error {
		st := &struct{ Iter int }{}
		if _, err := c.Restore(st); err != nil {
			return err
		}
		for st.Iter < 2 {
			if err := c.Compute(100 * vtime.Nanosecond); err != nil {
				return err
			}
			st.Iter++
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
		c.SetResult(st.Iter)
		return nil
	}
	res := runFenced(t, cfg, prog)
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds %d, want 1", len(res.Rounds))
	}
	if res.Rounds[0].StartVT != 101 {
		t.Fatalf("detection VT %v, want the exact-tie stamp 101", res.Rounds[0].StartVT)
	}
	// Both cluster-B saves were issued at the fence and must have
	// completed: the cluster restores from sequence 1 (two snapshot
	// loads), not from the initial state.
	if res.StoreStats.Loads != 2 {
		t.Fatalf("restore loaded %d snapshots, want 2 (cluster B from seq 1)", res.StoreStats.Loads)
	}
	for r, v := range res.Results {
		if v != 2 {
			t.Fatalf("rank %d result %v, want 2 iterations", r, v)
		}
	}
}

// TestTwoVictimsOneRoundReproducible kills two ranks of different clusters
// in one concurrent failure event, mid-checkpoint-wave under a storage
// bandwidth model, and asserts the round and everything downstream are
// byte-stable.
func TestTwoVictimsOneRoundReproducible(t *testing.T) {
	assign := []int{0, 0, 1, 1, 2, 2}
	cfg := mpi.Config{
		NP:              6,
		Topo:            rollback.NewTopology(assign),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		CheckpointEvery: 2,
		Failures: []failure.Event{{
			Ranks: []int{2, 4},
			When:  failure.Trigger{AfterCheckpoints: 1},
		}},
	}
	mkStore := func() checkpoint.Store { return checkpoint.NewMemStore(2e9, 2e9) }
	clean := runStoreBacked(t, cfg, mkStore, apps.Stencil2D(8, 4096), false)
	failed := runStoreBacked(t, cfg, mkStore, apps.Stencil2D(8, 4096), true)
	if len(failed.Rounds) != 1 {
		t.Fatalf("rounds %d, want 1 (two victims, one concurrent event)", len(failed.Rounds))
	}
	if failed.Rounds[0].RolledBack != 4 {
		t.Fatalf("rolled back %d ranks, want the 4 of clusters 1 and 2", failed.Rounds[0].RolledBack)
	}
	for r := range clean.Results {
		if clean.Results[r] != failed.Results[r] {
			t.Fatalf("rank %d diverged after recovery: %v vs %v", r, clean.Results[r], failed.Results[r])
		}
	}
}

// TestFailureDuringRecoveryReproducible injects a second failure whose
// detection lands while the first round's recovery is still in flight
// (disjoint clusters) and asserts the recovery and the final state are
// byte-stable: the queued failure's fence is declared at detection on its
// scope and on round 0's coordinator, which needs reports from past that
// fence and so stops there. One merged round rolls back both clusters,
// each from its own fence, and the run ends as the failure-free run does.
func TestFailureDuringRecoveryReproducible(t *testing.T) {
	cfg, prog, r0 := duringRecoveryScenario(t)
	failed := runStoreBacked(t, cfg, memStore2e9, prog, true)
	if len(failed.Rounds) != 1 {
		t.Fatalf("rounds %+v, want only the merged round", failed.Rounds)
	}
	if got := failed.Rounds[0]; got.Round != 1 || got.RolledBack != 8 || got.StartVT != r0.StartVT {
		t.Fatalf("round %+v, want round 1 rolling back clusters 0 and 2 from round 0's fence %v", got, r0.StartVT)
	}
	if failed.Makespan != 1_995_284 {
		t.Fatalf("makespan %d ns, want 1 995 284 ns", int64(failed.Makespan))
	}
	cfg.Failures = nil
	clean := runStoreBacked(t, cfg, memStore2e9, prog, false)
	for r := range clean.Results {
		if clean.Results[r] != failed.Results[r] {
			t.Fatalf("rank %d diverged after overlapping rounds: %v vs %v", r, clean.Results[r], failed.Results[r])
		}
	}
}

func memStore2e9() checkpoint.Store { return checkpoint.NewMemStore(2e9, 2e9) }

// duringRecoveryScenario is the plan and program of
// TestFailureDuringRecoveryReproducible, run over memStore2e9, and round 0
// of the run with only its first failure: a probe run locates round 0's
// span, and the second failure's trigger is aimed inside it.
func duringRecoveryScenario(t *testing.T) (mpi.Config, mpi.Program, rollback.RecoveryStats) {
	t.Helper()
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	cfg := mpi.Config{
		NP:              12,
		Topo:            rollback.NewTopology(assign),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		CheckpointEvery: 3,
	}
	prog := apps.Stencil2D(10, 8192)
	first := failure.Event{Ranks: []int{2}, When: failure.Trigger{AfterCheckpoints: 1}}
	cfg.Failures = []failure.Event{first}
	probe := runStoreBacked(t, cfg, memStore2e9, prog, true)
	if len(probe.Rounds) != 1 {
		t.Fatalf("probe rounds %d, want 1", len(probe.Rounds))
	}
	r0 := probe.Rounds[0]
	midVT := r0.StartVT.Add(r0.EndVT.Sub(r0.StartVT) / 2)
	cfg.Failures = []failure.Event{first, {Ranks: []int{9}, When: failure.Trigger{AtVT: midVT}}}
	return cfg, prog, r0
}

// TestBlockedScopePeerDrainReproducible is the naive-drain deadlock
// regression: the victim dies before sending the message its cluster peer
// is blocked on. Draining the plane to the detection time must reap the
// blocked peer (victim-aware bounds) instead of letting it pin the plane
// until the run ends in ErrDeadlock.
func TestBlockedScopePeerDrainReproducible(t *testing.T) {
	cfg := mpi.Config{
		NP:       3,
		Topo:     rollback.NewTopology([]int{0, 0, 1}),
		Protocol: core.New(),
		Model:    netmodel.Myrinet10G(),
		Failures: []failure.Event{{
			Ranks: []int{0},
			When:  failure.Trigger{AfterSends: 1},
		}},
	}
	prog := func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			// The plan fires here on the first incarnation: rank 1
			// never gets the second message and blocks on its dead peer.
			if err := c.Compute(vtime.Microsecond); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		case 1:
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			d, _, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			c.SetResult(string(d))
			return nil
		default:
			return c.Compute(vtime.Microsecond)
		}
	}
	res := runFenced(t, cfg, prog)
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds %d, want 1", len(res.Rounds))
	}
	if res.Results[1] != "two" {
		t.Fatalf("rank 1 got %v, want the replayed second message", res.Results[1])
	}
}

// TestReverseOrderDetectionsMergeReproducible: a compute-only victim's
// detection is quantized to its chunk end, so a failure triggered early
// can be detected at a LATER virtual time than a communicating victim's
// failure triggered afterwards in real time. Detections are admitted in
// virtual-time order (Proc.maybeFail takes the turn), so rank 0's failure
// at 24ns opens round 0 and rank 2's at 1000ns queues behind it, dooming
// its scope and round 0's coordinator there. The coordinator needs a
// report from that scope past the fence, so it stops, and a merged round
// rolls back both clusters at their own fences — on any number of cores.
func TestReverseOrderDetectionsMergeReproducible(t *testing.T) {
	cfg, prog := reverseOrderScenario()
	res := runFenced(t, cfg, prog)
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds %d, want 1 (round 0's coordinator stops at the queued fence, only the merged round completes)", len(res.Rounds))
	}
	if res.Rounds[0].RolledBack != 4 {
		t.Fatalf("merged round rolled back %d ranks, want all 4", res.Rounds[0].RolledBack)
	}
	if res.Makespan != 3076 {
		t.Fatalf("makespan %v, want 3.076µs (round 0 opened by the earlier detection)", res.Makespan)
	}
	for r, v := range res.Results {
		want := 2
		if r < 2 {
			want = 6
		}
		if v != want {
			t.Fatalf("rank %d result %v, want %d", r, v, want)
		}
	}
}

// TestReverseOrderArrivalReproducible repeats the reverse-order scenario
// on at least two cores, where the two evFail events race in real time:
// which victim opens the round must not follow that race.
func TestReverseOrderArrivalReproducible(t *testing.T) {
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

// reverseOrderScenario is the schedule and program of the two
// reverse-order tests.
func reverseOrderScenario() (mpi.Config, mpi.Program) {
	cfg := mpi.Config{
		NP:       4,
		Topo:     rollback.NewTopology([]int{0, 0, 1, 1}),
		Protocol: core.New(),
		Model:    netmodel.Ideal(),
		Failures: []failure.Event{
			// Cluster 1 is compute-only: the trigger at VT 50 fires at the
			// first interaction point past it — the end of rank 2's first
			// 1000ns chunk — so the detection lands at VT 1000.
			{Ranks: []int{2}, When: failure.Trigger{AtVT: vtime.Time(50)}},
			// Cluster 0 ping-pongs in tens of nanoseconds; rank 0 dies at
			// its third send, i.e. at a detection time far BELOW 1000 —
			// but its evFail can only reach the supervisor after cluster
			// 1's frontiers unblocked the ping-pong, i.e. after rank 2's
			// failure was already emitted: reverse virtual-time order.
			{Ranks: []int{0}, When: failure.Trigger{AfterSends: 3}},
		},
	}
	prog := func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0, 1:
			peer := 1 - c.Rank()
			got := 0
			for i := 0; i < 6; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, i, []byte("ping")); err != nil {
						return err
					}
					if _, _, err := c.Recv(peer, i); err != nil {
						return err
					}
				} else {
					if _, _, err := c.Recv(peer, i); err != nil {
						return err
					}
					if err := c.Send(peer, i, []byte("pong")); err != nil {
						return err
					}
				}
				got++
				if err := c.Compute(10 * vtime.Nanosecond); err != nil {
					return err
				}
			}
			c.SetResult(got)
			return nil
		default:
			for i := 0; i < 2; i++ {
				if err := c.Compute(1000 * vtime.Nanosecond); err != nil {
					return err
				}
			}
			c.SetResult(2)
			return nil
		}
	}
	return cfg, prog
}

// TestPostFenceTriggerDroppedReproducible: a trigger that fires past its
// rank's doom fence belongs to an incarnation already dead in virtual
// time, so it is dropped, not admitted as a second failure. Rank 0 fails
// at 100ns and dooms its cluster there; rank 1's 150ns trigger fires at
// the end of its 200ns chunk, past that fence.
func TestPostFenceTriggerDroppedReproducible(t *testing.T) {
	var failures [][]int // both runs', in order
	cfg := mpi.Config{
		NP:       2,
		Topo:     rollback.NewTopology([]int{0, 0}),
		Protocol: core.New(),
		Model:    netmodel.Ideal(),
		Failures: []failure.Event{
			{Ranks: []int{0}, When: failure.Trigger{AtVT: 100}},
			{Ranks: []int{1}, When: failure.Trigger{AtVT: 150}},
		},
		Observer: mpi.ObserverFunc(func(ev mpi.Event) {
			if ev.Kind == mpi.EvFailure {
				failures = append(failures, ev.Ranks)
			}
		}),
	}
	prog := func(c *mpi.Comm) error {
		for i := 0; i < 4; i++ {
			if err := c.Compute(100 * vtime.Nanosecond); err != nil {
				return err
			}
		}
		c.SetResult(4)
		return nil
	}
	res := runFenced(t, cfg, prog)
	if len(res.Rounds) != 1 || res.Rounds[0].RolledBack != 2 {
		t.Fatalf("rounds %+v, want exactly one rolling back both ranks", res.Rounds)
	}
	if want := [][]int{{0}, {0}}; !reflect.DeepEqual(failures, want) {
		t.Fatalf("failure events %v over two runs, want only rank 0's in each", failures)
	}
}

// TestOverlappingScopeRefailureReproducible closes the overlapping-scope
// deadlock caveat: the same cluster is hit again while its own recovery
// round is mid-flight. Rank 0 logs inter-cluster sends, dies, and its
// restarted incarnation dies again after notifying only the first of two
// orphans — so round 0's coordinator would wait forever on the second
// orphan notification. The second failure dooms the coordinator at its
// detection time, where it stops, and a merged round re-rolls the cluster
// to the earliest fence and converges, with rank 2 delivering every
// message exactly once.
func TestOverlappingScopeRefailureReproducible(t *testing.T) {
	cfg, prog := overlappingScopeScenario()
	res := runFenced(t, cfg, prog)
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds %d, want 1 (round 0's coordinator stops, only the merged round completes)", len(res.Rounds))
	}
	if res.Rounds[0].RolledBack != 2 {
		t.Fatalf("merged round rolled back %d ranks, want cluster 0's 2", res.Rounds[0].RolledBack)
	}
	if res.Results[2] != 1+2+3+4 {
		t.Fatalf("rank 2 sum %v, want 10 (each message delivered exactly once)", res.Results[2])
	}
}

// overlappingScopeScenario is the plan and program of
// TestOverlappingScopeRefailureReproducible.
func overlappingScopeScenario() (mpi.Config, mpi.Program) {
	cfg := mpi.Config{
		NP:       4,
		Topo:     rollback.NewTopology([]int{0, 0, 1, 1}),
		Protocol: core.New(),
		Model:    netmodel.Ideal(),
		Failures: []failure.Event{
			// First incarnation of rank 0 dies entering its third send.
			{Ranks: []int{0}, When: failure.Trigger{AfterSends: 2}},
			// The replay suppresses re-sends of the two orphans; the
			// cumulative send counter crosses 3 after the first suppressed
			// re-send, so the restarted incarnation dies entering the
			// second — leaving one orphan notification outstanding.
			{Ranks: []int{0}, When: failure.Trigger{AfterSends: 3}},
		},
	}
	prog := func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			for i := 1; i <= 4; i++ {
				if err := c.Send(2, i, []byte{byte(i)}); err != nil {
					return err
				}
				if err := c.Compute(10 * vtime.Nanosecond); err != nil {
					return err
				}
			}
			c.SetResult(4)
			return nil
		case 2:
			sum := 0
			for i := 1; i <= 4; i++ {
				d, _, err := c.Recv(0, i)
				if err != nil {
					return err
				}
				sum += int(d[0])
			}
			c.SetResult(sum)
			return nil
		default:
			if err := c.Compute(100 * vtime.Nanosecond); err != nil {
				return err
			}
			c.SetResult(-1)
			return nil
		}
	}
	return cfg, prog
}

// windowRun runs windowScenario and returns the result and the scope of
// the last recovery-start event.
func windowRun(t *testing.T, chunk [4]vtime.Duration, pause time.Duration, victims ...int) (*mpi.Result, []int) {
	t.Helper()
	var scope []int
	cfg, prog := windowScenario(chunk, pause, victims...)
	cfg.Observer = mpi.ObserverFunc(func(ev mpi.Event) {
		if ev.Kind == mpi.EvRecoveryStart {
			scope = ev.Ranks
		}
	})
	return runFenced(t, cfg, prog), scope
}

// windowScenario runs four compute-only ranks in clusters {0, 1} and
// {2, 3}, rank r computing two chunks of chunk[r] nanoseconds, rank 1
// pausing for pause of real time after each, with one AtVT 50 trigger per
// victim: every trigger fires at its victim's first chunk end.
func windowScenario(chunk [4]vtime.Duration, pause time.Duration, victims ...int) (mpi.Config, mpi.Program) {
	cfg := mpi.Config{
		NP:       4,
		Topo:     rollback.NewTopology([]int{0, 0, 1, 1}),
		Protocol: core.New(),
		Model:    netmodel.Ideal(),
	}
	for _, v := range victims {
		cfg.Failures = append(cfg.Failures, failure.Event{Ranks: []int{v}, When: failure.Trigger{AtVT: 50}})
	}
	prog := func(c *mpi.Comm) error {
		for i := 0; i < 2; i++ {
			if err := c.Compute(chunk[c.Rank()]); err != nil {
				return err
			}
			if c.Rank() == 1 {
				time.Sleep(pause)
			}
		}
		c.SetResult(2)
		return nil
	}
	return cfg, prog
}

// checkOneRound asserts that res recovered in a single round 0 whose scope
// is want, and finished at makespan.
func checkOneRound(t *testing.T, res *mpi.Result, scope, want []int, makespan vtime.Time) {
	t.Helper()
	if len(res.Rounds) != 1 || res.Rounds[0].Round != 0 || res.Rounds[0].RolledBack != len(want) {
		t.Fatalf("rounds %+v, want one round 0 rolling back %d ranks", res.Rounds, len(want))
	}
	if !reflect.DeepEqual(scope, want) {
		t.Fatalf("round scope %v, want %v", scope, want)
	}
	if res.Makespan != makespan {
		t.Fatalf("makespan %d ns, want %d ns", int64(res.Makespan), int64(makespan))
	}
}

var evenChunks = [4]vtime.Duration{1000, 1000, 1000, 1000}

// TestSameDetectionOneClusterReproducible: both ranks of cluster 0 fail at
// the same detection time. The second failure is admitted while round 0
// drains and joins it, so the cluster rolls back once.
func TestSameDetectionOneClusterReproducible(t *testing.T) {
	res, scope := windowRun(t, evenChunks, 0, 0, 1)
	checkOneRound(t, res, scope, []int{0, 1}, 3001)
}

// TestSameDetectionTwoClustersReproducible: one rank of each cluster fails
// at the same detection time. The second failure joins the draining round
// 0 with its own cluster fenced at its own detection, so no coordinator is
// doomed and no round is merged.
func TestSameDetectionTwoClustersReproducible(t *testing.T) {
	res, scope := windowRun(t, evenChunks, 0, 0, 2)
	checkOneRound(t, res, scope, []int{0, 1, 2, 3}, 3003)
}

// TestJoinAtStartReproducible: rank 0's failure at 1000ns opens round 0,
// which starts one hop later, at 1001ns, exactly where rank 2's failure is
// detected. Whether rank 1, still draining, unwinds before or after rank
// 2's failure reaches the supervisor is a real-time race; a pause in rank
// 1's goroutine forces one side of it. Either way rank 2's failure joins
// round 0, because the round launches only once the recovery endpoint
// holds the turn at its start, and its start moves one hop past the join,
// so the joined cluster's fence is not held by the endpoint's bound.
func TestJoinAtStartReproducible(t *testing.T) {
	chunks := [4]vtime.Duration{1000, 5000, 1001, 1001}
	fast, scope := windowRun(t, chunks, 0, 0, 2)
	checkOneRound(t, fast, scope, []int{0, 1, 2, 3}, 11004)
	slow, _ := windowRun(t, chunks, 2*time.Millisecond, 0, 2)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("a slow drain changed the run:\n  %+v\n  %+v", fast, slow)
	}
}

// slowResult delays every recovery coordinator's result by 2 ms of real
// time after its Run returns, so a failure detected during the round
// reaches the supervisor first wherever it can.
type slowResult struct{ rollback.Protocol }

func (p slowResult) NewRecovery(rx rollback.RecoveryContext) rollback.Recovery {
	if rec := p.Protocol.NewRecovery(rx); rec != nil {
		return slowRecovery{rec}
	}
	return nil
}

type slowRecovery struct{ rollback.Recovery }

func (r slowRecovery) Run(info rollback.RoundInfo) (rollback.RecoveryStats, error) {
	stats, err := r.Recovery.Run(info)
	time.Sleep(2 * time.Millisecond)
	return stats, err
}

// TestSlowCoordinatorResultReproducible: whether a coordinator's result or
// a failure detected during its round reaches the supervisor first is a
// real-time race. The failure dooms the coordinator at its detection time,
// so the next round is the same either way. Each multi-failure scenario
// must give the same Result with every coordinator's result delayed.
func TestSlowCoordinatorResultReproducible(t *testing.T) {
	during, duringProg, _ := duringRecoveryScenario(t)
	reverse, reverseProg := reverseOrderScenario()
	overlap, overlapProg := overlappingScopeScenario()
	join, joinProg := windowScenario([4]vtime.Duration{1000, 5000, 1001, 1001}, 0, 0, 2)
	for _, sc := range []struct {
		name  string
		cfg   mpi.Config
		prog  mpi.Program
		store func() checkpoint.Store // nil: the default store
	}{
		{"reverse-order", reverse, reverseProg, nil},
		{"overlapping-scope", overlap, overlapProg, nil},
		{"during-recovery", during, duringProg, memStore2e9},
		{"join-at-start", join, joinProg, nil},
	} {
		t.Run(sc.name, func(t *testing.T) {
			run := func(cfg mpi.Config) *mpi.Result {
				if sc.store != nil {
					return runStoreBacked(t, cfg, sc.store, sc.prog, true)
				}
				return runFenced(t, cfg, sc.prog)
			}
			want := run(sc.cfg)
			slow := sc.cfg
			slow.Protocol = slowResult{slow.Protocol}
			if got := run(slow); !reflect.DeepEqual(got, want) {
				t.Fatalf("a slow coordinator result changed the run:\n  %+v\n  %+v", got, want)
			}
		})
	}
}

// runStoreBacked runs cfg with a fresh store per run; when twice is true it
// runs two times and asserts byte-identical results first.
func runStoreBacked(t *testing.T, cfg mpi.Config, mkStore func() checkpoint.Store, prog mpi.Program, twice bool) *mpi.Result {
	t.Helper()
	run := func() *mpi.Result {
		c := cfg
		c.Store = mkStore()
		res, err := mpi.Run(c, prog)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return virtualOnly(res)
	}
	a := run()
	if twice {
		b := run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("results not byte-stable:\n  %+v\n  %+v", a, b)
		}
	}
	return a
}

// countingProtocol counts the snapshots its engines capture. The runtime
// stages every capture and then commits it — one logical save in the
// store's Stats — or, refused at the turn, discards it; so captures minus
// saves is the number of staged saves discarded past a kill fence.
type countingProtocol struct {
	rollback.Protocol
	captures *atomic.Int64
}

func (p countingProtocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	return countingEngine{p.Protocol.NewEngine(rank, px), p.captures}
}

type countingEngine struct {
	rollback.Engine
	captures *atomic.Int64
}

func (e countingEngine) OnCheckpoint(s *checkpoint.Snapshot) {
	e.captures.Add(1)
	e.Engine.OnCheckpoint(s)
}

// TestStagedSaveRefusedPastFenceReproducible is the mid-wave kill fence
// over an ec:4+2 store, whose saves are staged before the turn: rank 13
// fails right after a checkpoint write, and the cluster peers whose next
// writes are issued past its detection time are refused at the turn and
// discard their staged fragment groups. Such runs must be byte-stable and
// equal — Result, Stats, ShardStats, every load — to a run whose saves
// all happen under the turn, where a refused save never reached the
// store; and the staged runs must really refuse saves.
func TestStagedSaveRefusedPastFenceReproducible(t *testing.T) {
	const np, iters = 16, 6
	imgs := waveImages(np, 4<<10)
	run := func(hide bool) (*mpi.Result, string, int64) {
		st := newECUnderFaults(t)
		cfg := waveConfig(np)
		var captures atomic.Int64
		cfg.Protocol = countingProtocol{cfg.Protocol, &captures}
		cfg.Store = st.faulty
		if hide {
			cfg.Store = underTurn{st.faulty}
		}
		cfg.Failures = []failure.Event{{Ranks: []int{13}, When: failure.Trigger{AfterCheckpoints: 2}}}
		res, err := mpi.Run(cfg, ringWave(iters, imgs))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return virtualOnly(res), st.observables(np, iters), captures.Load() - res.StoreStats.Saves
	}
	ref, refStore, refused := run(false)
	if refused == 0 {
		t.Fatalf("no save was refused at the fence (rounds %+v)", ref.Rounds)
	}
	for pass, hide := range []bool{false, true} {
		res, store, n := run(hide)
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("pass %d (under the turn: %v): result differs:\n  %+v\n  %+v", pass, hide, res, ref)
		}
		if store != refStore {
			t.Errorf("pass %d (under the turn: %v): store differs:\n%s\nvs\n%s", pass, hide, store, refStore)
		}
		if n != refused {
			t.Errorf("pass %d (under the turn: %v): %d saves refused, first run %d", pass, hide, n, refused)
		}
	}
}

// TestTwoCheckpointFailuresAllProtocolsReproducible runs two plans under
// all three protocols. In the first, ranks 1 and 5, in clusters 0 and 1,
// fail right after their first checkpoint. Each checkpoint group restores
// from the newest sequence all its members completed at or below their
// fences: under coord the group is every rank, so a round restores one
// global cut even when some clusters have re-taken a checkpoint and others
// have not. In the second, rank 9 fails after its second checkpoint while
// rank 1's round recovers: under HydEE and mlog the coordinator stops at
// rank 9's fence, and the merged round dooms cluster 0's restarted
// incarnations where the stopped coordinator held the plane, so how far
// they ran before the merge does not show; a store with a bandwidth model
// makes their checkpoint writes take virtual time, where a cut at their
// old fences would land at a different write from run to run. Each run
// must be byte-stable and end as the failure-free run does.
func TestTwoCheckpointFailuresAllProtocolsReproducible(t *testing.T) {
	assign := make([]int, 16)
	for r := range assign {
		assign[r] = r / 4
	}
	after := func(ckpts, rank int) failure.Event {
		return failure.Event{Ranks: []int{rank}, When: failure.Trigger{AfterCheckpoints: ckpts}}
	}
	oneAndFive := []failure.Event{after(1, 1), after(1, 5)}
	oneThenNine := []failure.Event{after(1, 1), after(2, 9)}
	for _, tc := range []struct {
		plan     string
		failures []failure.Event
		store    func() checkpoint.Store // nil: the default store
		prot     rollback.Protocol
		rounds   int
		// makespan is not pinned (0) over the bandwidth-modelled store:
		// snapshot sizes carry gob type ids, which a process numbers in
		// the order it meets types, so they move with the tests run
		// earlier in the same binary.
		makespan vtime.Time
	}{
		{"1-and-5", oneAndFive, nil, core.New(), 1, 112_077},
		{"1-and-5", oneAndFive, nil, core.NewMLog(), 1, 112_140},
		{"1-and-5", oneAndFive, nil, rollback.Coordinated(), 2, 131_076},
		{"1-then-9", oneThenNine, memStore2e9, core.New(), 1, 0},
		{"1-then-9", oneThenNine, memStore2e9, core.NewMLog(), 1, 0},
		{"1-then-9", oneThenNine, memStore2e9, rollback.Coordinated(), 2, 0},
	} {
		t.Run(tc.plan+"/"+tc.prot.Name(), func(t *testing.T) {
			cfg := mpi.Config{
				NP:              16,
				Topo:            rollback.NewTopology(assign),
				Protocol:        tc.prot,
				Model:           netmodel.Myrinet10G(),
				CheckpointEvery: 1,
			}
			run := func(cfg mpi.Config) *mpi.Result {
				if tc.store != nil {
					return runStoreBacked(t, cfg, tc.store, apps.Ring(8, 1024), true)
				}
				return runFenced(t, cfg, apps.Ring(8, 1024))
			}
			clean := run(cfg)
			cfg.Failures = tc.failures
			res := run(cfg)
			if len(res.Rounds) != tc.rounds || (tc.makespan != 0 && res.Makespan != tc.makespan) {
				t.Errorf("%d rounds, makespan %d ns; want %d rounds, %d ns",
					len(res.Rounds), int64(res.Makespan), tc.rounds, int64(tc.makespan))
			}
			if !reflect.DeepEqual(res.Results, clean.Results) {
				t.Errorf("results %v, failure-free %v", res.Results, clean.Results)
			}
		})
	}
}

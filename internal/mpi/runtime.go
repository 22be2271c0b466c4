package mpi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Runtime executes one run: it owns the network, supervises the process
// goroutines, kills and restarts clusters on failures, and serializes
// recovery rounds.
type Runtime struct {
	cfg     Config
	net     *transport.Network
	model   netmodel.Model
	topo    *rollback.Topology
	prot    rollback.Protocol
	store   checkpoint.Store
	inj     *failure.Injector
	rec     *trace.Recorder
	obs     *observerMux
	program Program

	evCh     chan procEvent
	cumSends []int64 // atomic, cumulative app sends per rank across incarnations

	// Supervisor-owned (touched only by the goroutine running supervise
	// and the setup code that precedes it):
	//
	// liveProcs counts process goroutines started and not yet observed to
	// die; recLive marks a recovery-coordinator goroutine in flight. Their
	// sum is the parked-goroutine count Network.Quiescent must see for the
	// plane to be provably stuck. pending holds failure events queued
	// behind the active round, ordered by (detection VT, first victim).
	liveProcs int
	recLive   bool
	pending   []procEvent

	mu       sync.Mutex
	metrics  []rollback.Metrics
	results  []any
	finalVT  []vtime.Time
	rounds   []rollback.RecoveryStats
	wg       sync.WaitGroup
	roundSeq int
	// ckptDone[rank] lists the checkpoint writes THIS run completed for
	// rank, with the virtual time each write was issued at (guarded by
	// mu). Restores consult it rather than the store's LatestSeq for two
	// reasons: a store pinned across several runs (engine WithStore) can
	// never leak a previous run's sequences into this run's restart
	// scope, and a failure round restores from the newest sequence issued
	// at or below its detection fence — a save that completed in real
	// time but was issued past the fence never enters the restart scope,
	// so the restored sequence is a pure function of virtual time.
	ckptDone [][]savePoint
}

// savePoint records one completed checkpoint write: the sequence saved and
// the virtual time the write was issued (admitted by Network.AwaitTurn) at.
type savePoint struct {
	seq int
	vt  vtime.Time
}

type evKind int

const (
	evFinished evKind = iota
	evDied
	evFail
	evFatal
	evRecoveryDone
)

type procEvent struct {
	kind  evKind
	rank  int
	vt    vtime.Time
	ranks []int // evFail: victims
	err   error
	stats rollback.RecoveryStats
}

func (rt *Runtime) event(ev procEvent) { rt.evCh <- ev }

// Run executes program under cfg and returns the aggregated result.
func Run(cfg Config, program Program) (*Result, error) {
	return RunContext(context.Background(), cfg, program)
}

// RunContext executes program under cfg, honoring ctx: when the context is
// canceled or its deadline expires, the supervisor kills every process
// endpoint, all rank goroutines unwind promptly, and the run returns a
// *RunError wrapping ErrCanceled.
func RunContext(ctx context.Context, cfg Config, program Program) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, runErr(-1, -1, PhaseConfig, err)
	}
	if o := observerFromContext(ctx); o != nil {
		if cfg.Observer != nil {
			cfg.Observer = MultiObserver(cfg.Observer, o)
		} else {
			cfg.Observer = o
		}
	}
	rt := &Runtime{
		cfg:      cfg,
		model:    cfg.Model,
		topo:     cfg.Topo,
		prot:     cfg.Protocol,
		store:    cfg.Store,
		rec:      cfg.Recorder,
		obs:      &observerMux{obs: cfg.Observer, runID: runIDs.Add(1)},
		program:  program,
		net:      transport.NewNetwork(cfg.NP, cfg.Model),
		evCh:     make(chan procEvent, 4*cfg.NP+16),
		cumSends: make([]int64, cfg.NP),
		metrics:  make([]rollback.Metrics, cfg.NP),
		results:  make([]any, cfg.NP),
		finalVT:  make([]vtime.Time, cfg.NP),
		ckptDone: make([][]savePoint, cfg.NP),
	}
	if cfg.Failures != nil {
		rt.inj = failure.NewInjector(cfg.Failures)
	}
	// Pre-create the recovery endpoint so early control traffic to it is
	// buffered rather than lost, and declare it as the latent failure
	// source: the delivery gate then never admits a stamp a future
	// recovery round could undercut.
	rt.net.DeclareRecovery(cfg.NP)

	rt.obs.emit(Event{Kind: EvRunStart, Rank: -1, Round: -1})
	for r := 0; r < cfg.NP; r++ {
		rt.startProc(r, nil, nil, 0)
	}
	err := rt.supervise(ctx)
	rt.drainAndJoin()
	if err != nil {
		rt.obs.emit(Event{Kind: EvRunAbort, Rank: -1, Round: -1, Err: err})
		return nil, err
	}

	res := &Result{
		PerRank:    append([]rollback.Metrics(nil), rt.metrics...),
		Results:    append([]any(nil), rt.results...),
		Rounds:     append([]rollback.RecoveryStats(nil), rt.rounds...),
		StoreStats: rt.store.Stats(),
		Plane:      rt.net.Counters(),
	}
	stats := rt.net.Stats()
	res.PairBytes = make([]int64, len(stats))
	res.PairMsgs = make([]int64, len(stats))
	for i, s := range stats {
		res.PairBytes[i] = s.Bytes
		res.PairMsgs[i] = s.Msgs
	}
	for r := 0; r < cfg.NP; r++ {
		if rt.finalVT[r] > res.Makespan {
			res.Makespan = rt.finalVT[r]
		}
		res.Totals.Add(&rt.metrics[r])
	}
	rt.obs.emit(Event{Kind: EvRunComplete, Rank: -1, Round: -1, VT: res.Makespan})
	return res, nil
}

func (rt *Runtime) startProc(rank int, snap *checkpoint.Snapshot, round *rollback.RoundInfo, startVT vtime.Time) {
	p := rt.newProc(rank, snap, round, startVT)
	rt.liveProcs++
	rt.wg.Add(1)
	go p.run()
}

// roundState tracks an in-flight failure round through its three steps:
// declared (scope doomed at the detection fence, recovery endpoint
// attached), draining (waitingDeath non-empty: doomed goroutines finish
// their pre-fence work and unwind), and recovering (scope killed, restored
// and the recovery coordinator running).
type roundState struct {
	info         rollback.RoundInfo
	waitingDeath map[int]bool
	recovering   bool
	// fences maps each rolled-back cluster to its detection fence: the
	// virtual time its restore cut is judged against. A plain round fences
	// every cluster at its one detection time; a merged round (overlapping
	// scopes, or detections arriving in reverse virtual-time order) keeps
	// one fence per cluster.
	fences map[int]vtime.Time
	// superseded marks a starved round whose coordinator has been killed:
	// its evRecoveryDone carries ErrKilled and is replaced by a merged
	// round absorbing the queued failures, instead of aborting the run.
	superseded bool
	// startVT is the virtual time the round's restore and recovery
	// coordinator start at: one network hop after the detection time, or
	// — when this round chains directly behind another — one hop after
	// the previous round's end, so no stamp this round produces can
	// undercut a delivery the previous round's execution already
	// admitted.
	startVT vtime.Time
}

// insertPending inserts ev keeping the queue ordered by (detection VT,
// first victim): queued failure rounds begin in virtual-time order, not in
// the real-time order their evFail events happened to reach the
// supervisor's channel.
func insertPending(q []procEvent, ev procEvent) []procEvent {
	i := len(q)
	for i > 0 && (q[i-1].vt > ev.vt || (q[i-1].vt == ev.vt && q[i-1].ranks[0] > ev.ranks[0])) {
		i--
	}
	q = append(q, procEvent{})
	copy(q[i+1:], q[i:])
	q[i] = ev
	return q
}

// starveProbe is the real-time interval at which the supervisor checks a
// stalled plane for deterministic starvation (an active round that can
// never complete because a queued overlapping failure killed ranks it
// still needs). It is a liveness knob only: the supersession it triggers
// fires at a quiescent state that is a pure function of virtual time.
const starveProbe = 2 * time.Millisecond

func (rt *Runtime) supervise(ctx context.Context) error {
	np := rt.cfg.NP
	finished := make([]bool, np)
	finCount := 0
	var cur *roundState
	deadEarly := make(map[int]bool)
	roundsRun := 0

	watchdogDur := rt.cfg.watchdog()
	//hydee:allow wallclock(watchdog is a liveness knob: it only aborts hung runs, never shapes virtual time)
	watchdog := time.NewTimer(watchdogDur)
	defer watchdog.Stop()
	//hydee:allow wallclock(starvation probe fires only at transport quiescence, a pure function of virtual time)
	probe := time.NewTimer(starveProbe)
	defer probe.Stop()

	curRound := func() int {
		if cur != nil {
			return cur.info.Round
		}
		return -1
	}
	bumpRounds := func() error {
		roundsRun++
		if roundsRun > rt.cfg.MaxRounds {
			rt.abort()
			return runErr(-1, curRound(), PhaseSupervise,
				fmt.Errorf("more than MaxRounds=%d recovery rounds", rt.cfg.MaxRounds))
		}
		return nil
	}

	for finCount < np || cur != nil || len(rt.pending) > 0 {
		// The evCh case is the only one that shapes virtual time, and its
		// events arrive in plane-determined order; watchdog/probe are
		// wall-clock liveness aids that abort or inspect quiescent state.
		//hydee:allow selectorder(only evCh affects virtual time; timer cases abort or probe quiescence)
		select {
		case ev := <-rt.evCh:
			// Since Go 1.23, Reset on an active timer needs no stop-and-
			// drain; the old `if !watchdog.Stop() { <-watchdog.C }` idiom
			// can block forever here, because under the new semantics a
			// fired-but-unread timer's channel is emptied by Stop itself.
			watchdog.Reset(watchdogDur)
			switch ev.kind {
			case evFinished:
				if !finished[ev.rank] {
					finished[ev.rank] = true
					finCount++
				}
				rt.obs.emit(Event{Kind: EvRankFinished, Rank: ev.rank, Round: curRound(), VT: ev.vt})

			case evFatal:
				rt.abort()
				return runErr(ev.rank, curRound(), PhaseProgram, ev.err)

			case evFail:
				rt.obs.emit(Event{Kind: EvFailure, Rank: -1, Ranks: ev.ranks, Round: -1, VT: ev.vt})
				if !rt.prot.Tolerates() {
					rt.abort()
					return runErr(-1, -1, PhaseSupervise,
						fmt.Errorf("protocol %q cannot tolerate the injected failure of ranks %v", rt.prot.Name(), ev.ranks))
				}
				rt.pending = insertPending(rt.pending, ev)
				if cur == nil {
					// Pop before beginRound: it may reach launchRound
					// synchronously (whole scope already dead), and the
					// re-doom pass there must only see failures this round
					// does NOT handle.
					head := rt.pending[0]
					rt.pending = rt.pending[1:]
					var err error
					cur, err = rt.beginRound(head, 0, finished, &finCount, deadEarly)
					if err != nil {
						rt.abort()
						return err
					}
					if err := bumpRounds(); err != nil {
						return err
					}
				} else {
					// The round is queued behind the active one, but its
					// fence is declared immediately — on every scope member,
					// including ranks shared with the active round: a shared
					// rank's current incarnation stops at the new detection
					// time, and launchRound re-dooms restarted incarnations
					// covered by a still-pending failure (Kill/RestartAt
					// clear the fence). Nothing above ev.vt plus one hop has
					// been admitted yet — the victim's un-quiesced endpoint
					// still froze the plane when this event was emitted — so
					// the cut is a pure function of virtual time.
					for _, r := range rt.prot.RestartScope(rt.topo, ev.ranks) {
						rt.net.Doom(r, ev.vt)
					}
				}

			case evDied:
				rt.liveProcs--
				if cur != nil && cur.waitingDeath[ev.rank] {
					delete(cur.waitingDeath, ev.rank)
					// The goroutine has unwound; nothing at or below the
					// fence remains in flight for it. Stop the delivery
					// gate from waiting on its stale frontier while the
					// rest of the scope drains.
					rt.net.Quiesce(ev.rank)
					if len(cur.waitingDeath) == 0 && !cur.recovering {
						if err := rt.killAndLaunch(cur); err != nil {
							rt.abort()
							return err
						}
					}
				} else {
					deadEarly[ev.rank] = true
					// The goroutine is gone but its endpoint is not killed
					// yet (the rank's round is queued behind the active
					// one); stop the delivery gate from waiting on it.
					rt.net.Quiesce(ev.rank)
				}

			case evRecoveryDone:
				rt.recLive = false
				if cur != nil && cur.superseded {
					// The starved coordinator unwound after KillService;
					// its partial stats are discarded and a merged round —
					// the old scope plus every queued failure's — takes
					// over at a quiescent point of the virtual execution.
					if ev.err != nil && !errors.Is(ev.err, transport.ErrKilled) {
						rt.abort()
						return runErr(-1, ev.stats.Round, PhaseRecovery, ev.err)
					}
					var err error
					cur, err = rt.beginMerged(cur, finished, &finCount, deadEarly)
					if err != nil {
						rt.abort()
						return err
					}
					if err := bumpRounds(); err != nil {
						return err
					}
					continue
				}
				if ev.err != nil {
					rt.abort()
					return runErr(-1, ev.stats.Round, PhaseRecovery, ev.err)
				}
				rt.obs.emit(Event{Kind: EvRecoveryEnd, Rank: -1, Round: ev.stats.Round, VT: ev.stats.EndVT, Stats: &ev.stats})
				rt.mu.Lock()
				rt.rounds = append(rt.rounds, ev.stats)
				rt.mu.Unlock()
				cur = nil
				if len(rt.pending) > 0 {
					// Chain the queued round directly behind the one that
					// just ended: its coordinator and restores start one
					// network hop after the previous round's end, so no
					// stamp it produces can undercut a delivery admitted
					// while the previous round ran — the recovery endpoint
					// stays attached throughout, with no unconstrained
					// window in between.
					head := rt.pending[0]
					rt.pending = rt.pending[1:]
					var err error
					cur, err = rt.beginRound(head, ev.stats.EndVT.Add(rt.net.MinLatency()), finished, &finCount, deadEarly)
					if err != nil {
						rt.abort()
						return err
					}
					if err := bumpRounds(); err != nil {
						return err
					}
				} else {
					// No round follows: detach the recovery endpoint, which
					// falls back to being the plane's latent failure source.
					rt.net.Quiesce(rt.cfg.NP)
				}
			}

		case <-ctx.Done():
			rt.abort()
			return runErr(-1, curRound(), PhaseSupervise, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx)))

		case <-probe.C:
			// Starvation check: an active round plus queued failures, with
			// every goroutine parked beyond waking and no event in flight,
			// is a round that can never complete — typically its coordinator
			// waits on a report from a rank a queued overlapping failure
			// already stopped. Quiescence is evaluated first: once it holds,
			// no actor can emit an event, so the channel check cannot race.
			// The stuck state (and everything derived from it) is a pure
			// function of virtual time, so the supersession is too.
			if cur != nil && len(rt.pending) > 0 {
				expected := rt.liveProcs
				if rt.recLive {
					expected++
				}
				if rt.net.Quiescent(expected) && len(rt.evCh) == 0 {
					if cur.recovering {
						if !cur.superseded {
							// Kill the starved coordinator; the merge happens
							// when its evRecoveryDone drains back here.
							cur.superseded = true
							rt.net.KillService(rt.cfg.NP)
						}
					} else {
						// Still draining: extend the declared round in place
						// (no coordinator or RoundStart exists yet).
						if err := rt.extendRound(cur, finished, &finCount, deadEarly); err != nil {
							rt.abort()
							return err
						}
						if err := bumpRounds(); err != nil {
							return err
						}
					}
				}
			}
			probe.Reset(starveProbe)

		case <-watchdog.C:
			plane := rt.net.DebugState()
			waiting := ""
			if cur != nil {
				waiting = fmt.Sprintf(", round %d waiting on deaths %v, recovering %v", cur.info.Round, cur.waitingDeath, cur.recovering)
			}
			rt.abort()
			return runErr(-1, curRound(), PhaseSupervise,
				fmt.Errorf("%w: no supervisor event for %v (deadlock or overlapping failures; %d/%d finished, round active: %v%s)\ndelivery plane:\n%s",
					ErrDeadlock, watchdogDur, finCount, np, cur != nil, waiting, plane))
		}
	}

	// Shut lingering processes down. The shutdown is stamped at the far
	// future so it sorts after every real message still queued: a lingering
	// process drains its remaining control traffic (whose clock merges are
	// part of the makespan) in virtual-time order before it exits, instead
	// of racing the supervisor's send in real time.
	for r := 0; r < np; r++ {
		m := &transport.Msg{Src: -1, Dst: r, Kind: transport.Ctl, CtlBody: shutdownBody{},
			WireLen: 1, SendVT: shutdownSendVT}
		_ = rt.net.Send(m)
	}
	return nil
}

// beginRound starts a failure round with the declare step of the
// three-step virtual-time kill protocol: it computes the restart scope,
// dooms every scope member at the detection fence (in-flight deliveries
// and checkpoint writes at or below the fence complete; anything later is
// cancelled deterministically), and waits (via evDied events) for the
// doomed goroutines to drain and unwind before killing and restarting
// them in killAndLaunch.
func (rt *Runtime) beginRound(ev procEvent, chainVT vtime.Time, finished []bool, finCount *int, deadEarly map[int]bool) (*roundState, error) {
	scope := rt.prot.RestartScope(rt.topo, ev.ranks)
	info := rollback.RoundInfo{
		Round:          rt.roundSeq,
		FailedClusters: rt.topo.ClustersOf(scope),
		RolledBack:     append([]int(nil), scope...),
		DetectVT:       ev.vt,
	}
	rt.roundSeq++
	rt.obs.emit(Event{Kind: EvRecoveryStart, Rank: -1, Round: info.Round, Ranks: info.RolledBack, VT: ev.vt})
	startVT := rt.recoveryVT(info.DetectVT)
	if chainVT > startVT {
		startVT = chainVT
	}
	// Attach the recovery endpoint before the first doom: from the moment
	// the scope's frontiers stop constraining the delivery gate, the
	// recovery actor's must, or survivors could deliver post-detection
	// stamps the recovery round has yet to undercut. The attach point is
	// one minimum-latency hop after the detection time — the round's
	// control traffic is stamped there (the detection propagates to the
	// coordinator over the network) — so the recovery's own bound never
	// holds doomed scope peers' drain at the fence itself; a chained round
	// starts after the previous round's end instead (chainVT). AttachAt
	// (not Publish) because this round's start may precede the virtual
	// time the previous round's recovery finished at.
	rt.net.AttachAt(rt.cfg.NP, startVT)
	rs := &roundState{
		info:         info,
		startVT:      startVT,
		waitingDeath: make(map[int]bool, len(scope)),
		fences:       make(map[int]vtime.Time, len(info.FailedClusters)),
	}
	for _, c := range info.FailedClusters {
		rs.fences[c] = info.DetectVT
	}
	for _, r := range scope {
		rs.waitingDeath[r] = true
	}
	for _, r := range scope {
		rt.net.Doom(r, info.DetectVT)
		if finished[r] {
			finished[r] = false
			*finCount--
		}
		if deadEarly[r] {
			delete(deadEarly, r)
			delete(rs.waitingDeath, r)
		}
	}
	if len(rs.waitingDeath) == 0 {
		if err := rt.killAndLaunch(rs); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// absorbPending folds every queued failure into rs: scope members are added
// to the round, and each affected cluster's fence drops to the earliest
// detection that covers it. It returns the ranks newly added to the scope
// and leaves the pending queue empty.
func (rt *Runtime) absorbPending(rs *roundState) []int {
	var added []int
	for _, ev := range rt.pending {
		for _, r := range rt.prot.RestartScope(rt.topo, ev.ranks) {
			c := rt.topo.ClusterOf[r]
			if f, ok := rs.fences[c]; !ok || ev.vt < f {
				rs.fences[c] = ev.vt
			}
			if !rs.info.Includes(r) {
				rs.info.RolledBack = append(rs.info.RolledBack, r)
				added = append(added, r)
			}
		}
	}
	rt.pending = rt.pending[:0]
	sort.Ints(rs.info.RolledBack)
	rs.info.FailedClusters = rt.topo.ClustersOf(rs.info.RolledBack)
	first := true
	var min vtime.Time
	for _, f := range rs.fences {
		if first || f < min {
			min, first = f, false
		}
	}
	rs.info.DetectVT = min
	return added
}

// extendRound handles a starved round still in its drain phase: the doomed
// scope and the queued failures' scopes block each other (overlapping
// scopes, or detections that reached the supervisor in reverse virtual-time
// order), so neither drain can finish. The round is extended in place —
// same round number, since no coordinator or RoundStart exists yet — with
// per-cluster fences, and its start moves past everything the plane has
// produced.
func (rt *Runtime) extendRound(rs *roundState, finished []bool, finCount *int, deadEarly map[int]bool) error {
	if s := rt.net.MaxFrontier().Add(rt.net.MinLatency()); s > rs.startVT {
		rs.startVT = s
	}
	// Raise the recovery endpoint's bound before the new scope's frontiers
	// stop constraining the gate, exactly as beginRound attaches before the
	// first doom.
	rt.net.AttachAt(rt.cfg.NP, rs.startVT)
	added := rt.absorbPending(rs)
	rt.obs.emit(Event{Kind: EvRecoveryStart, Rank: -1, Round: rs.info.Round, Ranks: rs.info.RolledBack, VT: rs.info.DetectVT})
	for _, r := range added {
		rt.net.Doom(r, rs.fences[rt.topo.ClusterOf[r]])
		if finished[r] {
			finished[r] = false
			*finCount--
		}
		if deadEarly[r] {
			delete(deadEarly, r)
		} else {
			rs.waitingDeath[r] = true
		}
	}
	if len(rs.waitingDeath) == 0 && !rs.recovering {
		return rt.killAndLaunch(rs)
	}
	return nil
}

// beginMerged replaces a superseded round whose coordinator was already
// running (and has been killed): a fresh round — new number, since the old
// RoundStart was broadcast — rolls back the union of the old scope and
// every queued failure's, each cluster fenced at its earliest detection.
// The old scope's restarted incarnations are doomed below their resume
// clocks, so they die at their first wait and the whole merged scope drains
// through the ordinary kill machinery.
func (rt *Runtime) beginMerged(old *roundState, finished []bool, finCount *int, deadEarly map[int]bool) (*roundState, error) {
	rs := &roundState{
		info: rollback.RoundInfo{
			Round:      rt.roundSeq,
			RolledBack: append([]int(nil), old.info.RolledBack...),
			DetectVT:   old.info.DetectVT,
		},
		waitingDeath: make(map[int]bool),
		fences:       make(map[int]vtime.Time, len(old.fences)),
	}
	rt.roundSeq++
	for c, f := range old.fences {
		rs.fences[c] = f
	}
	rt.absorbPending(rs)
	rs.startVT = rt.net.MaxFrontier().Add(rt.net.MinLatency())
	// Revive the killed recovery endpoint first: its bound must constrain
	// the plane before the scope's frontiers stop doing so.
	rt.net.RestartServiceAt(rt.cfg.NP, rs.startVT)
	rt.obs.emit(Event{Kind: EvRecoveryStart, Rank: -1, Round: rs.info.Round, Ranks: rs.info.RolledBack, VT: rs.info.DetectVT})
	for _, r := range rs.info.RolledBack {
		rt.net.Doom(r, rs.fences[rt.topo.ClusterOf[r]])
		if finished[r] {
			finished[r] = false
			*finCount--
		}
		if deadEarly[r] {
			delete(deadEarly, r)
		} else {
			rs.waitingDeath[r] = true
		}
	}
	if len(rs.waitingDeath) == 0 {
		if err := rt.killAndLaunch(rs); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// killAndLaunch is the kill step: the whole scope has drained to the
// detection fence (every doomed goroutine unwound), so the kills — the
// incarnation bumps and mailbox wipes — now happen at a deterministic
// point of the virtual execution, and the restore can begin.
func (rt *Runtime) killAndLaunch(rs *roundState) error {
	for _, r := range rs.info.RolledBack {
		inc := rt.net.Kill(r)
		rs.info.Incs = append(rs.info.Incs, inc)
	}
	rs.info.AllIncs = rt.net.Incs()
	return rt.launchRound(rs)
}

// launchRound revives and restarts the rolled-back processes from their
// checkpoints and spawns the recovery coordinator.
//
// A failure can land while part of a cluster has completed checkpoint N and
// the rest is still writing it, so each cluster restores from the minimum
// sequence completed by all of its members (0 = restart from the initial
// state). "Completed" is judged against the round's detection fence: only
// writes issued at or below DetectVT count, so a save that happened to
// finish in real time but was issued past the fence never skews the
// restored sequence — the restore is a pure function of virtual time. The
// completed sequences come from the runtime's own per-run table, not the
// store's LatestSeq: a store pinned across runs still holds earlier runs'
// snapshots, and those must never enter this run's restart scope. A
// sequence this run completed but the store cannot load aborts the round
// with ErrCheckpointLost: restarting that rank from its initial state
// instead would silently diverge from the survivors.
func (rt *Runtime) launchRound(rs *roundState) error {
	rs.recovering = true
	info := rs.info
	restoreSeq := make(map[int]int) // cluster -> min completed seq at the fence
	rt.mu.Lock()
	for _, r := range info.RolledBack {
		c := rt.topo.ClusterOf[r]
		fence := rs.fences[c]
		seq := 0
		for _, sp := range rt.ckptDone[r] {
			if sp.vt <= fence && sp.seq > seq {
				seq = sp.seq
			}
		}
		if cur, ok := restoreSeq[c]; !ok || seq < cur {
			restoreSeq[c] = seq
		}
	}
	// A rolled-back rank's saves above its cluster's restore point belong
	// to the abandoned timeline: prune them, or a later round could mix a
	// pre-rollback snapshot into a restore cut with post-rollback ones
	// from its peers.
	for _, r := range info.RolledBack {
		restored := restoreSeq[rt.topo.ClusterOf[r]]
		kept := rt.ckptDone[r][:0]
		for _, sp := range rt.ckptDone[r] {
			if sp.seq <= restored {
				kept = append(kept, sp)
			}
		}
		rt.ckptDone[r] = kept
	}
	rt.mu.Unlock()
	// Restores are issued at the round's start time (one hop after
	// detection, or after the previous round when chained), never at the
	// raw detection stamp: every stamp the restarted incarnations produce
	// therefore sorts after everything the plane admitted before the
	// round launched.
	snaps := make([]*checkpoint.Snapshot, len(info.RolledBack))
	starts := make([]vtime.Time, len(info.RolledBack))
	for i, r := range info.RolledBack {
		seq := restoreSeq[rt.topo.ClusterOf[r]]
		starts[i] = rs.startVT
		if seq > 0 {
			snap, endVT, ok := rt.store.Load(r, seq, rs.startVT)
			if !ok {
				return runErr(r, info.Round, PhaseRecovery,
					fmt.Errorf("restore rank %d from checkpoint seq %d: %w", r, seq, ErrCheckpointLost))
			}
			snaps[i], starts[i] = snap, endVT
		}
	}
	// Revive every endpoint before any restarted process runs, so no
	// OnRestore traffic is dropped at a still-dead sibling. The revived
	// frontier is the rank's resume time: its replays cannot predate it.
	for i, r := range info.RolledBack {
		rt.net.RestartAt(r, starts[i])
	}
	// A queued overlapping failure's fence must survive the kill/restart
	// cycle: Kill and RestartAt clear doomVT, so a restarted rank covered
	// by a still-pending failure is re-doomed before its goroutine starts.
	// A fence below the restart clock just means the incarnation dies at
	// its first wait — deterministically, after its (non-blocking)
	// OnRestore notifications went out.
	for _, pf := range rt.pending {
		for _, r := range rt.prot.RestartScope(rt.topo, pf.ranks) {
			if info.Includes(r) {
				rt.net.Doom(r, pf.vt)
			}
		}
	}
	for i, r := range info.RolledBack {
		rt.startProc(r, snaps[i], &info, starts[i])
	}
	rx := &recCtx{rt: rt, ep: rt.net.Endpoint(rt.cfg.NP), now: rs.startVT}
	rec := rt.prot.NewRecovery(rx)
	if rec == nil {
		rt.event(procEvent{kind: evRecoveryDone, stats: rollback.RecoveryStats{
			Round: info.Round, RolledBack: len(info.RolledBack),
			StartVT: info.DetectVT, EndVT: rs.startVT,
		}})
		return nil
	}
	rt.recLive = true
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		stats, err := rec.Run(info)
		// The endpoint stays attached (bounded at the round's final
		// frontier) until the supervisor processes this event: it either
		// chains the next queued round — whose stamps continue from here —
		// or quiesces the endpoint back to latent-source duty. Detaching
		// here instead would open an unconstrained window in which
		// deliveries could be admitted that a chained round's stamps
		// would undercut.
		rt.event(procEvent{kind: evRecoveryDone, stats: stats, err: err})
	}()
	return nil
}

// recoveryVT is the virtual time a round's recovery coordinator starts at:
// one minimum-latency network hop after the failure's detection.
func (rt *Runtime) recoveryVT(detect vtime.Time) vtime.Time {
	return detect.Add(rt.net.MinLatency())
}

// abort tears everything down after a fatal error.
func (rt *Runtime) abort() {
	for r := 0; r < rt.cfg.NP; r++ {
		rt.net.Kill(r)
	}
	rt.net.KillService(rt.cfg.NP) // recovery endpoint
}

// drainAndJoin waits for every goroutine while consuming stray events.
func (rt *Runtime) drainAndJoin() {
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	for {
		//hydee:allow selectorder(drain loop: stray events are discarded either way, the outcome is join completion)
		select {
		case <-rt.evCh:
		case <-done:
			return
		}
	}
}

// ckptScheduled decides whether the idx-th cooperative checkpoint call of a
// cluster fires.
func (rt *Runtime) ckptScheduled(cluster, idx int) bool {
	k := rt.cfg.CheckpointEvery
	if k <= 0 || idx <= 0 {
		return false
	}
	off := 0
	if rt.cfg.CheckpointStagger {
		off = cluster % k
	}
	return idx%k == off
}

// recCtx implements rollback.RecoveryContext over the recovery endpoint.
type recCtx struct {
	rt  *Runtime
	ep  *transport.Endpoint
	now vtime.Time
}

// Topo implements rollback.RecoveryContext.
func (r *recCtx) Topo() *rollback.Topology { return r.rt.topo }

// Recv implements rollback.RecoveryContext.
func (r *recCtx) Recv() (*transport.Msg, error) {
	m, err := r.ep.Recv(r.now)
	if err != nil {
		return nil, err
	}
	if m.ArriveVT > r.now {
		r.now = m.ArriveVT
	}
	return m, nil
}

// SendCtl implements rollback.RecoveryContext.
func (r *recCtx) SendCtl(dst int, body any, wireBytes int) {
	m := &transport.Msg{
		Src: r.rt.cfg.NP, Dst: dst, Kind: transport.Ctl,
		CtlBody: body, WireLen: wireBytes, SendVT: r.now,
	}
	_ = r.rt.net.Send(m)
}

// Now implements rollback.RecoveryContext.
func (r *recCtx) Now() vtime.Time { return r.now }

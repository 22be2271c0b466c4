package mpi

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Runtime executes one run: it owns the network, drives the run's tasks
// (driver.go), kills and restarts clusters on failures, and serializes
// recovery rounds.
type Runtime struct {
	cfg     Config
	net     *transport.Network
	recEP   *transport.Endpoint // the recovery endpoint, id NP
	model   netmodel.Model
	topo    *rollback.Topology
	prot    rollback.Protocol
	store   checkpoint.Store
	rec     *trace.Recorder
	obs     *observerMux
	program Program

	// drv runs every task; events holds what tasks reported to the
	// supervisor since the run's loop last looked.
	drv    driver
	events []procEvent
	// plan[r] lists the failure events whose first victim is r, not yet
	// fired, and sends[r] counts r's application sends across
	// incarnations. Only r's current incarnation touches them.
	plan  [][]failure.Event
	sends []int64

	metrics []rollback.Metrics
	results []any
	finalVT []vtime.Time
	rounds  []rollback.RecoveryStats
	// ckptDone[rank] lists the checkpoint writes THIS run completed for
	// rank, with the virtual time each write was issued at. It is the one
	// record of restore points, since stores only
	// store: a store pinned across several runs (engine WithStore) can
	// never leak a previous run's sequences into this run's restart
	// scope, and a failure round restores from the newest sequence issued
	// at or below its detection fence — a save that completed in real
	// time but was issued past the fence never enters the restart scope,
	// so the restored sequence is a pure function of virtual time.
	ckptDone [][]savePoint
	// free holds the envelopes given back by release, at most NP of them,
	// for newMsg to hand out again (DESIGN.md "Envelope ownership"). Only
	// the run's goroutine touches it, so it needs no lock.
	free []*transport.Msg
	// aborted is set once the run aborts (cancel, deadlock or a fatal
	// error), before the endpoints die: a rank that never waits on the
	// delivery plane reads it at its next Comm operation. A canceled
	// context sets it from another goroutine.
	aborted atomic.Bool
}

// savePoint records one completed checkpoint write: the sequence saved and
// the virtual time the write was issued at (admitted by
// Endpoint.FlushAwaitTurn).
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
	evTurn // the recovery endpoint holds the turn at vt
)

func (k evKind) String() string {
	return [...]string{"finished", "died", "fail", "fatal", "recovery-done", "turn"}[k]
}

type procEvent struct {
	kind  evKind
	rank  int
	vt    vtime.Time
	ranks []int // evFail: victims
	err   error
	stats rollback.RecoveryStats
}

func (rt *Runtime) event(ev procEvent) { rt.events = append(rt.events, ev) }

// newMsg returns an envelope for the caller to overwrite whole: a
// released one if any is free, else a new one.
func (rt *Runtime) newMsg() *transport.Msg {
	n := len(rt.free)
	if n == 0 {
		return new(transport.Msg)
	}
	m := rt.free[n-1]
	rt.free = rt.free[:n-1]
	return m
}

// release gives back an envelope nothing reads any more: a delivered App
// message once Comm.Recv has read it, a counted marker, a suppressed or
// dropped send. It clears m, so the envelope keeps no payload alive; an
// engine or log that kept m.Data still holds a valid slice. The list keeps
// one spare per rank, what steady traffic reuses; a burst past that, such
// as a checkpoint wave's markers, is left to the garbage collector rather
// than kept live for the rest of the run.
func (rt *Runtime) release(m *transport.Msg) {
	*m = releasedMsg
	if len(rt.free) < rt.cfg.NP {
		rt.free = append(rt.free, m)
	}
}

// releasedMsg is what release leaves in an envelope: the zero Msg, or
// poison under the envelope-poison test, so that a read after release
// shows in a run's result.
var releasedMsg transport.Msg

// Run executes program under cfg and returns the aggregated result.
func Run(cfg Config, program Program) (*Result, error) {
	return RunContext(context.Background(), cfg, program)
}

// RunContext executes program under cfg, honoring ctx: when the context is
// canceled or its deadline expires, every rank returns ErrKilled from its
// next Comm operation, the supervisor kills every process endpoint, all
// ranks unwind promptly, and the run returns a *RunError wrapping
// ErrCanceled. The run executes on the calling goroutine (see Program).
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
		drv:      driver{waiter: make([]*task, cfg.NP+1)},
		plan:     failure.ByFirstVictim(cfg.Failures, cfg.NP),
		sends:    make([]int64, cfg.NP),
		metrics:  make([]rollback.Metrics, cfg.NP),
		results:  make([]any, cfg.NP),
		finalVT:  make([]vtime.Time, cfg.NP),
		ckptDone: make([][]savePoint, cfg.NP),
	}
	// Pre-create the recovery endpoint so early control traffic to it is
	// buffered rather than lost, and declare it as the latent failure
	// source: the delivery gate then never admits a stamp a future
	// recovery round could undercut.
	rt.recEP = rt.net.DeclareRecovery(cfg.NP)
	rt.net.SetDriver(&rt.drv)

	rt.obs.emit(Event{Kind: EvRunStart, Rank: -1, Round: -1})
	for r := 0; r < cfg.NP; r++ {
		rt.startProc(r, nil, nil, 0)
	}
	if err := rt.drive(ctx); err != nil {
		rt.obs.emit(Event{Kind: EvRunAbort, Rank: -1, Round: -1, Err: err})
		return nil, err
	}

	res := &Result{
		PerRank:    append([]rollback.Metrics(nil), rt.metrics...),
		Results:    append([]any(nil), rt.results...),
		Rounds:     append([]rollback.RecoveryStats(nil), rt.rounds...),
		StoreStats: rt.store.Stats(),
		Traffic:    rt.net.Stats(),
		Plane:      rt.net.Counters(),
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
	rt.drv.spawn(rt.newProc(rank, snap, round, startVT).run)
}

// drive runs the run on the calling goroutine until every task has ended.
// It feeds the failure-round machine (rounds.go) the events tasks report,
// in the order they report them, and executes the actions each step
// returns: the machine decides, this acts. Between events it resumes every
// ready task, and once none is, enters every filed wait as one plane
// mutation. When nothing is ready, filed or reported, nothing can happen
// again: the run is complete once the machine is done and every task has
// ended, and deadlocked otherwise — exactly, with no timer. A run that
// never ends (a livelock) is bounded only by ctx.
func (rt *Runtime) drive(ctx context.Context) error {
	d := &rt.drv
	m := newMachine(rt.cfg.NP, rt.prot, rt.topo, rt.net.MinLatency(), len(rt.cfg.Failures))
	if ctx.Err() != nil {
		rt.aborted.Store(true)
	}
	defer context.AfterFunc(ctx, func() { rt.aborted.Store(true) })()

	var err error
	killed, shut := false, false
	for {
		if err == nil && rt.aborted.Load() {
			err = runErr(-1, m.round(), PhaseSupervise, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx)))
		}
		if len(rt.events) > 0 {
			// Events after the end or an error are strays: discarded.
			for i := 0; i < len(rt.events) && err == nil && !shut; i++ {
				err = rt.apply(m, rt.events[i])
			}
			clear(rt.events)
			rt.events = rt.events[:0]
		}
		if err == nil && !shut && m.done() {
			shut = true
			rt.shutdown()
		}
		if err != nil && !killed {
			killed = true
			rt.abort()
		}
		switch {
		case len(d.ready) > 0:
			d.runReady()
		case len(d.filed) > 0:
			rt.net.Enter(d.filed) // one mutation for every wait filed
			d.filed = d.filed[:0]
		case err != nil || d.live == 0 && shut:
			return err
		default:
			err = runErr(-1, m.round(), PhaseSupervise,
				fmt.Errorf("%w: nothing can run and %d tasks have not ended (%v)\ndelivery plane:\n%s",
					ErrDeadlock, d.live, m, rt.net.DebugState()))
		}
	}
}

// shutdown ends lingering processes once the machine is done. The
// shutdown is stamped at the far future so it sorts after every real
// message still queued: a lingering process drains its remaining control
// traffic (whose clock merges are part of the makespan) in virtual-time
// order before it exits.
func (rt *Runtime) shutdown() {
	shutdown := make([]*transport.Msg, rt.cfg.NP)
	for r := range shutdown {
		shutdown[r] = &transport.Msg{Src: -1, Dst: r, Kind: transport.Ctl, CtlBody: shutdownBody{},
			WireLen: 1, SendVT: shutdownSendVT}
	}
	_ = rt.net.SendBatch(shutdown)
}

// apply steps the machine and executes its actions in order; the first
// failing one ends the run.
func (rt *Runtime) apply(m *machine, ev procEvent) error {
	for _, a := range m.step(ev) {
		switch a.kind {
		case actDoom:
			rt.net.Doom(a.id, a.vt)
		case actAttach:
			rt.net.AttachAt(rt.cfg.NP, a.vt)
		case actQuiesce:
			rt.net.Quiesce(a.id)
		case actTurn:
			vt := a.vt
			rt.drv.spawn(func() {
				// Refused only once the run aborts: nobody waits then.
				if rt.recEP.FlushAwaitTurn(nil, vt) == nil {
					rt.event(procEvent{kind: evTurn, vt: vt})
				}
			})
		case actLaunch:
			if err := rt.launchRound(a); err != nil {
				return err
			}
		case actEmit:
			rt.obs.emit(a.ev)
		case actRecord:
			rt.rounds = append(rt.rounds, a.stats)
		case actFail:
			return a.err
		}
	}
	return nil
}

// launchRound executes a launch action: it kills the drained scope, then
// revives and restarts its processes from their checkpoints and spawns the
// recovery coordinator.
//
// A failure can land while part of a checkpoint group — the ranks that
// checkpoint together, RestartScope of one of them: its cluster under
// HydEE, every rank under coord — has completed checkpoint N and the rest
// is still writing it, so each group restores from the minimum sequence
// completed by all of its members (0 = restart from the initial state),
// "completed" meaning issued at or below the member's cluster fence in
// this run's own table (see ckptDone). A sequence this run completed but
// the store cannot load aborts the round with ErrCheckpointLost:
// restarting that rank from its initial state instead would silently
// diverge from the survivors.
func (rt *Runtime) launchRound(a action) error {
	info, startVT := a.info, a.vt
	for _, r := range info.RolledBack {
		info.Incs = append(info.Incs, rt.net.Kill(r))
	}
	info.AllIncs = rt.net.Incs()
	restoreSeq := make(map[int]int, len(info.RolledBack)) // rank -> its group's restore point
	for _, r := range info.RolledBack {
		if _, ok := restoreSeq[r]; ok {
			continue
		}
		group := rt.prot.RestartScope(rt.topo, []int{r})
		seq := math.MaxInt
		for _, g := range group {
			done := 0
			for _, sp := range rt.ckptDone[g] {
				if sp.vt <= a.fences[rt.topo.ClusterOf[g]] {
					done = max(done, sp.seq)
				}
			}
			seq = min(seq, done)
		}
		for _, g := range group {
			restoreSeq[g] = seq
		}
	}
	// A rolled-back rank's saves above its group's restore point belong
	// to the abandoned timeline: prune them, or a later round could mix a
	// pre-rollback snapshot into a restore cut with post-rollback ones
	// from its peers.
	for _, r := range info.RolledBack {
		kept := rt.ckptDone[r][:0]
		for _, sp := range rt.ckptDone[r] {
			if sp.seq <= restoreSeq[r] {
				kept = append(kept, sp)
			}
		}
		rt.ckptDone[r] = kept
	}
	// Restores are issued at the round's start time (one hop after its
	// latest detection), never at the raw detection stamp: every stamp the
	// restarted incarnations produce therefore sorts after everything the
	// plane admitted before the round launched.
	snaps := make([]*checkpoint.Snapshot, len(info.RolledBack))
	starts := make([]vtime.Time, len(info.RolledBack))
	for i, r := range info.RolledBack {
		seq := restoreSeq[r]
		starts[i] = startVT
		if seq > 0 {
			snap, endVT, ok := rt.store.Load(r, seq, startVT)
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
	for i, r := range info.RolledBack {
		rt.startProc(r, snaps[i], &info, starts[i])
	}
	rx := &recCtx{rt: rt, ep: rt.recEP, now: startVT}
	rec := rt.prot.NewRecovery(rx)
	if rec == nil {
		rt.event(procEvent{kind: evRecoveryDone, stats: rollback.RecoveryStats{
			Round: info.Round, RolledBack: len(info.RolledBack),
			StartVT: info.DetectVT, EndVT: startVT,
		}})
		return nil
	}
	rt.drv.spawn(func() {
		stats, err := rec.Run(info)
		// The endpoint stays attached (bounded at the round's final
		// frontier, or one hop past a queued failure's fence while
		// doomed) until the supervisor processes this event: it either
		// re-attaches the endpoint at the next round's start or quiesces
		// it back to latent-source duty. Detaching here instead would open
		// an unconstrained window in which deliveries could be admitted
		// that the next round's stamps would undercut.
		rt.event(procEvent{kind: evRecoveryDone, stats: stats, err: err})
	})
	return nil
}

// abort tears everything down after a fatal error.
func (rt *Runtime) abort() {
	rt.aborted.Store(true)
	for r := 0; r <= rt.cfg.NP; r++ { // the ranks and the recovery endpoint
		rt.net.Kill(r)
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
	m, err := r.ep.FlushRecv(nil, r.now, nil)
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
	_ = r.rt.net.SendBatch([]*transport.Msg{m})
}

// Now implements rollback.RecoveryContext.
func (r *recCtx) Now() vtime.Time { return r.now }

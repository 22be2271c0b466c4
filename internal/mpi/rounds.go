package mpi

import (
	"errors"
	"fmt"
	"slices"

	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// phase is where the supervisor stands in its failure-round cycle.
type phase int

const (
	phIdle       phase = iota // no round; the recovery endpoint is the plane's latent failure source
	phDraining                // scope doomed at its fences; doomed goroutines finish pre-fence work and unwind
	phRecovering              // scope killed, restored and restarted; the coordinator is running
	phSuperseded              // starved coordinator killed; its evRecoveryDone opens the merged round
)

func (p phase) String() string {
	return [...]string{"idle", "draining", "recovering", "superseded"}[p]
}

// input is one step of the machine: a procEvent or the starvation probe,
// with the plane facts the driver read for it. quiescent (evProbe, asked
// only while starvable) is Network.Quiescent(parked()) with no event in
// flight; maxFrontier (evRecoveryDone) is MaxFrontier.
type input struct {
	procEvent
	quiescent   bool
	maxFrontier vtime.Time
}

// actKind enumerates the closed set of things a step asks the driver to do.
type actKind int

const (
	actDoom        actKind = iota // Network.Doom(id, vt)
	actAttach                     // Network.AttachAt(recovery endpoint, vt)
	actRevive                     // Network.RestartAt(recovery endpoint, vt)
	actQuiesce                    // Network.Quiesce(id)
	actKillService                // Network.KillService(recovery endpoint)
	actTurn                       // Network.AwaitTurn(recovery endpoint, vt), then evTurn
	actLaunch                     // kill, restore and restart the scope; spawn the coordinator
	actEmit                       // observer event
	actRecord                     // a finished round's stats join the result
	actFail                       // abort the run with err
)

type action struct {
	kind  actKind
	id    int                    // doom, quiesce: the endpoint
	vt    vtime.Time             // doom: the fence; attach, revive, turn, launch: the round's start
	ev    Event                  // emit
	stats rollback.RecoveryStats // record
	err   error                  // fail
	// launch: the round and its per-cluster fences.
	info   rollback.RoundInfo
	fences map[int]vtime.Time
}

// stepError reports an input the machine has no cell for in its phase: a
// supervisor bug, surfaced as a run error — never a no-op, never a panic.
type stepError struct {
	phase phase
	input evKind
}

func (e *stepError) Error() string {
	return fmt.Sprintf("internal: supervisor input %v is impossible in phase %v", e.input, e.phase)
}

// machine is the failure-round state machine: all supervisor state and one
// mutator, step. It touches no network, store, observer, channel, timer or
// goroutine — the driver (Runtime.supervise) reads the plane facts a step
// needs and executes the actions it returns, in order.
type machine struct {
	np     int
	prot   rollback.Protocol // pure queries only: RestartScope, Tolerates, Name
	topo   *rollback.Topology
	minLat vtime.Duration

	phase phase
	// info is the round in flight (stale when idle): number, scope, and the
	// earliest of its fences as DetectVT.
	info rollback.RoundInfo
	// fences maps each rolled-back cluster to its detection fence, the
	// virtual time its restore cut is judged against: one time for a plain
	// round, one per cluster for a merged one.
	fences map[int]vtime.Time
	// drain holds the doomed scope members that have not unwound yet.
	drain map[int]bool
	// startVT is where the round's restores and coordinator start (see open).
	startVT vtime.Time
	// asking marks a turn request in flight; granted, that the recovery
	// endpoint holds the turn at startVT (see launchIfDrained).
	asking, granted bool
	// pending holds failures queued behind a launched round, in admission
	// order, which is (detection VT, first victim) order; empty unless the
	// phase is recovering or superseded.
	pending []procEvent

	finished []bool
	finCount int
	// deadEarly marks ranks that unwound outside a drain set, doomed by a
	// failure still queued: they skip the drain of their eventual round.
	deadEarly map[int]bool
	// procs and coords count process and coordinator goroutines started and
	// not yet seen to end: what must be parked for the plane to be stuck.
	procs, coords int
	nextRound     int
	// opened counts opens (merges included) against the runaway cap: the
	// plan's event count plus two.
	opened, maxRounds int

	acts []action // reused by every step
}

func newMachine(np int, prot rollback.Protocol, topo *rollback.Topology, minLat vtime.Duration, events int) *machine {
	return &machine{
		np: np, prot: prot, topo: topo, minLat: minLat,
		fences: make(map[int]vtime.Time), drain: make(map[int]bool),
		finished: make([]bool, np), deadEarly: make(map[int]bool),
		procs: np, maxRounds: events + 2,
	}
}

// done reports that every rank finished and no round is active or queued.
func (m *machine) done() bool { return m.finCount == m.np && m.phase == phIdle }

// round is the number of the round in flight, -1 when idle.
func (m *machine) round() int {
	if m.phase == phIdle {
		return -1
	}
	return m.info.Round
}

// starvable reports whether a queued failure could be starving the round
// in flight: only then does the probe need the plane's answer. A failure
// admitted while a round drains joins it, so only a launched round has a
// queue, and only its coordinator can starve.
func (m *machine) starvable() bool { return m.phase == phRecovering && len(m.pending) > 0 }

// parked is how many goroutines must be parked for the plane to be stuck.
func (m *machine) parked() int { return m.procs + m.coords }

func (m *machine) act(a action) { m.acts = append(m.acts, a) }

func (m *machine) emit(ev Event) { m.act(action{kind: actEmit, ev: ev}) }

func (m *machine) fail(rank, round int, phase string, err error) {
	m.act(action{kind: actFail, err: runErr(rank, round, phase, err)})
}

func (m *machine) impossible(in input) {
	m.fail(-1, m.round(), PhaseSupervise, &stepError{phase: m.phase, input: in.kind})
}

// step advances the machine by one input and returns the actions to run,
// in order (the next step reuses the slice). A fail action is always last.
func (m *machine) step(in input) []action {
	m.acts = m.acts[:0]
	switch in.kind {
	case evFinished:
		if !m.finished[in.rank] {
			m.finished[in.rank] = true
			m.finCount++
		}
		m.emit(Event{Kind: EvRankFinished, Rank: in.rank, Round: m.round(), VT: in.vt})
	case evFatal:
		m.fail(in.rank, m.round(), PhaseProgram, in.err)
	case evFail:
		m.failed(in.procEvent)
	case evDied:
		m.died(in)
	case evRecoveryDone:
		m.recoveryDone(in)
	case evTurn:
		m.turn(in)
	case evProbe:
		m.probe(in)
	}
	return m.acts
}

func (m *machine) failed(ev procEvent) {
	m.emit(Event{Kind: EvFailure, Rank: -1, Ranks: ev.ranks, Round: -1, VT: ev.vt})
	if !m.prot.Tolerates() {
		m.fail(-1, -1, PhaseSupervise,
			fmt.Errorf("protocol %q cannot tolerate the injected failure of ranks %v", m.prot.Name(), ev.ranks))
		return
	}
	m.pending = append(m.pending, ev)
	if m.phase == phIdle || m.phase == phDraining {
		m.open(0)
		return
	}
	// Queued behind the launched round, but fenced now, on every scope
	// member — ranks shared with the active round included: their current
	// incarnation stops at the new detection time. Nothing above ev.vt plus
	// one hop has been admitted yet (the victim's un-quiesced endpoint still
	// froze the plane when this event was emitted), so the cut is a pure
	// function of virtual time.
	for _, r := range m.prot.RestartScope(m.topo, ev.ranks) {
		m.act(action{kind: actDoom, id: r, vt: ev.vt})
	}
}

// died: the goroutine has unwound, so nothing at or below its fence remains
// in flight for it; quiescing its endpoint (not killed yet) stops the
// delivery gate from waiting on its stale frontier.
func (m *machine) died(in input) {
	m.procs--
	switch {
	case !m.drain[in.rank]:
		m.deadEarly[in.rank] = true
		m.act(action{kind: actQuiesce, id: in.rank})
	case m.phase != phDraining:
		m.impossible(in)
	default:
		delete(m.drain, in.rank)
		m.act(action{kind: actQuiesce, id: in.rank})
		m.launchIfDrained()
	}
}

func (m *machine) recoveryDone(in input) {
	if m.phase != phRecovering && m.phase != phSuperseded {
		m.impossible(in)
		return
	}
	m.coords = 0
	switch superseded := m.phase == phSuperseded; {
	case in.err != nil && !(superseded && errors.Is(in.err, transport.ErrKilled)):
		m.fail(-1, in.stats.Round, PhaseRecovery, in.err)
	case superseded:
		// The starved coordinator unwound after KillService: its partial
		// stats are discarded and the merged round takes over at a
		// quiescent point of the virtual execution.
		m.open(in.maxFrontier)
	default:
		m.emit(Event{Kind: EvRecoveryEnd, Rank: -1, Round: in.stats.Round, VT: in.stats.EndVT, Stats: &in.stats})
		m.act(action{kind: actRecord, stats: in.stats})
		if len(m.pending) > 0 {
			// Chain one round of every queued failure directly behind the
			// one that just ended: the recovery endpoint stays attached
			// throughout, with no unconstrained window in between.
			m.open(in.stats.EndVT)
		} else {
			// No round follows: detach the recovery endpoint, which falls
			// back to being the plane's latent failure source.
			m.phase = phIdle
			m.act(action{kind: actQuiesce, id: m.np})
		}
	}
}

// probe is the starvation check: a recovering round plus queued failures,
// with every goroutine parked beyond waking and no event in flight, is a
// round that can never complete — typically its coordinator waits on a
// report from a rank a queued overlapping failure already stopped. The
// stuck state is a pure function of virtual time, so what follows is too:
// the starved coordinator is killed, and the merge happens when its
// evRecoveryDone comes back. The driver asks the plane only while the
// machine is starvable, and a draining round never is.
func (m *machine) probe(in input) {
	switch {
	case !in.quiescent || len(m.pending) == 0:
	case m.phase == phDraining:
		m.impossible(in)
	case m.phase == phRecovering:
		m.phase = phSuperseded
		m.act(action{kind: actKillService})
	}
}

// open is the declare step of the three-step virtual-time kill protocol
// and the only place queued failures become part of a round: every open
// takes the whole queue. It settles scope, fences and start time, attaches
// the recovery endpoint, dooms the newly covered ranks at their fences
// (deliveries and checkpoint writes at or below a fence complete; anything
// later is cancelled deterministically) and leaves the round draining.
// Each cluster is fenced at the earliest detection covering it. A round
// starts one network hop after its latest detection and no earlier than
// `floor`: one hop after the previous round's end when chained, after
// MaxFrontier when merged. So no stamp it produces undercuts a delivery
// already admitted, and its clusters resume past their fences.
//
// A failure admitted while the round drains joins it, under the same
// number. Its admission turn sorted before the recovery endpoint's bound,
// the round's start, so its detection is at or below the start, and the
// round launches only once the endpoint holds the turn at its start (see
// launchIfDrained): whether a failure joins is a function of virtual
// time. A join detected less than a hop before the start moves the start
// one hop past it, so the endpoint's bound never holds the new fence's
// drain.
func (m *machine) open(after vtime.Time) {
	joined, start := m.phase == phDraining, m.startVT
	endpoint, floor := action{kind: actAttach}, after.Add(m.minLat)
	switch m.phase {
	case phIdle, phRecovering:
		m.info = rollback.RoundInfo{Round: m.nextRound, DetectVT: m.pending[0].vt}
		m.nextRound++
		clear(m.fences)
	case phDraining:
		floor = m.startVT
	case phSuperseded:
		// Merged round: a fresh number, since the old RoundStart was
		// broadcast, for the union of the old scope and the queue, each old
		// fence kept. The old scope's restarted incarnations, doomed below
		// their resume clocks, die at their first wait, so the merged scope
		// drains through the ordinary kill machinery.
		m.info.Round = m.nextRound
		m.nextRound++
		endpoint.kind = actRevive // KillService left the endpoint dead
	}
	m.startVT = max(m.pending[len(m.pending)-1].vt.Add(m.minLat), floor)
	doom := m.absorbPending()
	m.phase = phDraining
	m.emit(Event{Kind: EvRecoveryStart, Rank: -1, Round: m.info.Round, Ranks: m.info.RolledBack, VT: m.info.DetectVT})
	// The endpoint attaches before the first doom: from the moment the
	// scope's frontiers stop constraining the delivery gate, the recovery
	// actor's must, or survivors could deliver post-detection stamps the
	// round has yet to undercut. It attaches at the round's start, where
	// its control traffic is stamped, not at the fence — so its own bound
	// never holds doomed peers' drain at the fence itself. AttachAt (not
	// Publish): the start may precede the previous round's end.
	if !joined || m.startVT != start {
		m.granted = false
		endpoint.vt = m.startVT
		m.act(endpoint)
	}
	// A join dooms only the ranks it added: members that already unwound
	// must not re-enter the drain set.
	if !joined {
		doom = m.info.RolledBack
	}
	for _, r := range doom {
		m.act(action{kind: actDoom, id: r, vt: m.fences[m.topo.ClusterOf[r]]})
		if m.finished[r] {
			m.finished[r] = false
			m.finCount--
		}
		if m.deadEarly[r] {
			delete(m.deadEarly, r)
		} else {
			m.drain[r] = true
		}
	}
	m.launchIfDrained()
	if m.opened++; m.opened > m.maxRounds {
		m.fail(-1, m.info.Round, PhaseSupervise, fmt.Errorf("more than %d recovery rounds", m.maxRounds))
	}
}

// launchIfDrained triggers the kill step once every doomed goroutine has
// unwound and the recovery endpoint holds the turn at the round's start.
// The turn is granted only when no process can still act at or below the
// start, so every failure that could join the round has joined: no queued
// fence ever needs restoring on the restarted ranks. The kills —
// incarnation bumps and mailbox wipes — then happen at a deterministic
// point of the virtual execution, and the restore can begin.
func (m *machine) launchIfDrained() {
	switch {
	case len(m.drain) > 0 || m.asking:
	case !m.granted:
		m.asking = true
		m.act(action{kind: actTurn, vt: m.startVT})
	default:
		m.phase = phRecovering
		m.procs += len(m.info.RolledBack)
		m.coords = 1
		m.act(action{kind: actLaunch, vt: m.startVT, info: m.info, fences: m.fences})
	}
}

// turn: the recovery endpoint holds the turn it asked for. A grant for a
// start a later join moved is stale; launchIfDrained asks again.
func (m *machine) turn(in input) {
	if m.phase != phDraining {
		m.impossible(in)
		return
	}
	m.asking = false
	m.granted = in.vt == m.startVT
	m.launchIfDrained()
}

// absorbPending folds every queued failure into the round, empties the
// queue and returns the ranks it added to the scope. Each affected
// cluster's fence drops to the earliest detection covering it. The scope
// is a fresh slice: emitted events and restarted incarnations may still
// hold the old one.
func (m *machine) absorbPending() (added []int) {
	for _, ev := range m.pending {
		m.info.DetectVT = min(m.info.DetectVT, ev.vt) // stays the earliest fence
		for _, r := range m.prot.RestartScope(m.topo, ev.ranks) {
			c := m.topo.ClusterOf[r]
			if f, ok := m.fences[c]; !ok || ev.vt < f {
				m.fences[c] = ev.vt
			}
			if !m.info.Includes(r) && !slices.Contains(added, r) {
				added = append(added, r)
			}
		}
	}
	m.pending = m.pending[:0]
	m.info.RolledBack = slices.Concat(m.info.RolledBack, added)
	slices.Sort(m.info.RolledBack)
	m.info.FailedClusters = m.topo.ClustersOf(m.info.RolledBack)
	return added
}

// String is the deadlock report's account of what the supervisor waits for.
func (m *machine) String() string {
	s := fmt.Sprintf("phase %v, %d/%d finished, %d processes + %d coordinators live, %d of at most %d rounds opened, pending %v",
		m.phase, m.finCount, m.np, m.procs, m.coords, m.opened, m.maxRounds, m.pending)
	if m.phase != phIdle {
		s += fmt.Sprintf("; round %d scope %v waiting on deaths %v, fences %v, start %v",
			m.info.Round, m.info.RolledBack, m.drain, m.fences, m.startVT)
		if m.asking {
			s += " and the turn there"
		}
	}
	return s
}

// String renders a queued failure as (detection VT, victims).
func (ev procEvent) String() string { return fmt.Sprintf("(%v %v)", ev.vt, ev.ranks) }

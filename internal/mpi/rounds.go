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
	phDraining                // scope doomed at its fences; doomed ranks finish pre-fence work and unwind
	phRecovering              // scope killed, restored and restarted; the coordinator is running
)

func (p phase) String() string {
	return [...]string{"idle", "draining", "recovering"}[p]
}

// actKind enumerates the closed set of things a step asks the driver to do.
type actKind int

const (
	actDoom    actKind = iota // Network.Doom(id, vt)
	actAttach                 // Network.AttachAt(recovery endpoint, vt)
	actQuiesce                // Network.Quiesce(id)
	actTurn                   // FlushAwaitTurn(nil, vt) on the recovery endpoint, then evTurn
	actLaunch                 // kill, restore and restart the scope; spawn the coordinator
	actEmit                   // observer event
	actRecord                 // a finished round's stats join the result
	actFail                   // abort the run with err
)

type action struct {
	kind  actKind
	id    int                    // doom, quiesce: the endpoint
	vt    vtime.Time             // doom: the fence; attach, turn, launch: the round's start
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
// goroutine — the driver (Runtime.drive) feeds it the events of the
// run and executes the actions it returns, in order.
type machine struct {
	np     int
	prot   rollback.Protocol // pure queries only: RestartScope, Name
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
	// pending holds failures admitted while a round recovers, in admission
	// order, which is (detection VT, first victim) order. The first of them
	// doomed the coordinator, so the queue is non-empty only while a doomed
	// coordinator's result is on its way.
	pending []procEvent

	finished []bool
	finCount int
	// deadEarly marks ranks that unwound outside a drain set, doomed by a
	// failure still queued: they skip the drain of their eventual round.
	deadEarly map[int]bool
	nextRound int
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
		maxRounds: events + 2,
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

func (m *machine) act(a action) { m.acts = append(m.acts, a) }

func (m *machine) emit(ev Event) { m.act(action{kind: actEmit, ev: ev}) }

func (m *machine) fail(rank, round int, phase string, err error) {
	m.act(action{kind: actFail, err: runErr(rank, round, phase, err)})
}

func (m *machine) impossible(ev procEvent) {
	m.fail(-1, m.round(), PhaseSupervise, &stepError{phase: m.phase, input: ev.kind})
}

// step advances the machine by one event and returns the actions to run,
// in order (the next step reuses the slice). A fail action is always last.
func (m *machine) step(ev procEvent) []action {
	m.acts = m.acts[:0]
	switch ev.kind {
	case evFinished:
		if !m.finished[ev.rank] {
			m.finished[ev.rank] = true
			m.finCount++
		}
		m.emit(Event{Kind: EvRankFinished, Rank: ev.rank, Round: m.round(), VT: ev.vt})
	case evFatal:
		m.fail(ev.rank, m.round(), PhaseProgram, ev.err)
	case evFail:
		m.failed(ev)
	case evDied:
		m.died(ev)
	case evRecoveryDone:
		m.recoveryDone(ev)
	case evTurn:
		m.turn(ev)
	}
	return m.acts
}

func (m *machine) failed(ev procEvent) {
	m.emit(Event{Kind: EvFailure, Rank: -1, Ranks: ev.ranks, Round: -1, VT: ev.vt})
	scope := m.prot.RestartScope(m.topo, ev.ranks)
	if len(scope) == 0 { // the protocol cannot recover
		m.fail(-1, -1, PhaseSupervise,
			fmt.Errorf("protocol %q cannot tolerate the injected failure of ranks %v", m.prot.Name(), ev.ranks))
		return
	}
	m.pending = append(m.pending, ev)
	if m.phase != phRecovering {
		m.open()
		return
	}
	// Queued behind the launched round, but fenced now, on every scope
	// member — ranks shared with the active round included: their current
	// incarnation stops at the new detection time. The first queued failure
	// fences the coordinator too, like any scope member: it stops at its
	// first wait past the fence, and while doomed its bound holds the plane
	// one hop past the fence (transport's doomed latent source), so nothing
	// the next round's stamps could undercut is admitted before that round
	// attaches. Nothing above ev.vt plus one hop has been admitted yet (the
	// victim's un-quiesced endpoint still froze the plane when this event
	// was emitted), so the cut, and whether the coordinator completes within
	// it, is a pure function of virtual time.
	if len(m.pending) == 1 {
		m.act(action{kind: actDoom, id: m.np, vt: ev.vt})
	}
	for _, r := range scope {
		m.act(action{kind: actDoom, id: r, vt: ev.vt})
	}
}

// died: the rank has unwound, so nothing at or below its fence remains
// in flight for it; quiescing its endpoint (not killed yet) stops the
// delivery gate from waiting on its stale frontier.
func (m *machine) died(ev procEvent) {
	switch {
	case !m.drain[ev.rank]:
		m.deadEarly[ev.rank] = true
		m.act(action{kind: actQuiesce, id: ev.rank})
	case m.phase != phDraining:
		m.impossible(ev)
	default:
		delete(m.drain, ev.rank)
		m.act(action{kind: actQuiesce, id: ev.rank})
		m.launchIfDrained()
	}
}

// recoveryDone settles a launched round. With nothing queued, a completed
// coordinator's round is recorded and the recovery endpoint falls back to
// being the plane's latent failure source. With a failure queued, the
// coordinator was doomed at its detection time, and its result decides
// the next round: stopped at the fence (ErrKilled), the round is replaced
// by a merged one; completed within it, the round is recorded and a fresh
// one opens, exactly as if the queue had been admitted once the machine
// was idle. Which of the two it is is a function of virtual time, so the
// outcome does not depend on whether the failure or this result reached
// the supervisor first.
func (m *machine) recoveryDone(ev procEvent) {
	stopped := len(m.pending) > 0 && errors.Is(ev.err, transport.ErrKilled)
	switch {
	case m.phase != phRecovering:
		m.impossible(ev)
	case ev.err != nil && !stopped:
		m.fail(-1, ev.stats.Round, PhaseRecovery, ev.err)
	case stopped:
		m.open()
	default:
		m.emit(Event{Kind: EvRecoveryEnd, Rank: -1, Round: ev.stats.Round, VT: ev.stats.EndVT, Stats: &ev.stats})
		m.act(action{kind: actRecord, stats: ev.stats})
		m.phase = phIdle
		if len(m.pending) > 0 {
			m.open()
		} else {
			m.act(action{kind: actQuiesce, id: m.np})
		}
	}
}

// open is the declare step of the three-step virtual-time kill protocol
// and the only place queued failures become part of a round: every open
// takes the whole queue. It settles scope, fences and start time, dooms
// the newly covered ranks (deliveries and checkpoint writes at or below a
// fence complete; anything later is cancelled deterministically), attaches
// the recovery endpoint and leaves the round draining. Each cluster is
// fenced at the earliest detection covering it, and a round starts one
// network hop after its latest detection. Opened while idle, it is fresh:
// a new number and scope. Opened while recovering, it is merged: the
// stopped coordinator's RoundStart was broadcast, so it takes a new
// number, but it keeps the old scope and fences for the restore cut; the
// old scope's restarted incarnations are doomed one hop past the latest
// detection and the round starts a hop later (see the doom loop), so the
// merged scope drains through the ordinary kill machinery. No stamp
// either produces undercuts a delivery already admitted: an idle plane
// admitted nothing past the latest detection plus one hop, and a doomed
// coordinator held it there.
//
// Opened while draining, it is a join: a failure admitted while the round
// drains joins it, under the same number. Its admission turn sorted before
// the recovery endpoint's bound, the round's start, so its detection is at
// or below the start, and the round launches only once the endpoint holds
// the turn at its start (see launchIfDrained): whether a failure joins is
// a function of virtual time. A join detected less than a hop before the
// start moves the start one hop past it, so the endpoint's bound never
// holds the new fence's drain.
func (m *machine) open() {
	joined, merged := m.phase == phDraining, m.phase == phRecovering
	kill := m.pending[len(m.pending)-1].vt.Add(m.minLat) // merged: the scope's doom
	start := kill
	switch m.phase {
	case phIdle:
		m.info = rollback.RoundInfo{DetectVT: m.pending[0].vt}
		clear(m.fences)
	case phRecovering:
		start = kill.Add(m.minLat)
	case phDraining:
		start = max(start, m.startVT)
	}
	if !joined {
		m.info.Round = m.nextRound
		m.nextRound++
	}
	doom := m.absorbPending()
	m.phase = phDraining
	m.emit(Event{Kind: EvRecoveryStart, Rank: -1, Round: m.info.Round, Ranks: m.info.RolledBack, VT: m.info.DetectVT})
	// A join dooms only the ranks it added: members that already unwound
	// must not re-enter the drain set.
	if !joined {
		doom = m.info.RolledBack
	}
	for _, r := range doom {
		// A merged round dooms its scope at kill, where the stopped
		// coordinator held the plane, not at the old fences the restore
		// cut keeps: the stopped round's restarted incarnations ran
		// undoomed until this step, so at an old fence each would stop at
		// whichever wait this step found it in, and at kill each stops
		// where the hold stopped it anyway. The round starts a hop past
		// kill, so the endpoint's bound does not hold their drain. Ranks a
		// queued failure doomed keep that earlier fence.
		fence := m.fences[m.topo.ClusterOf[r]]
		if merged {
			fence = kill
		}
		m.act(action{kind: actDoom, id: r, vt: fence})
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
	// The endpoint attaches at the round's start, where its control
	// traffic is stamped, not at a fence — so its own bound never holds
	// doomed peers' drain at the fence itself — and after the dooms, so
	// the merged start does not let a restarted incarnation past kill
	// before its doom. No doomed rank stops constraining the gate before
	// the attach: a fresh or joined failure's victim still pins the plane
	// at its detection, and a stopped coordinator holds it at kill.
	// AttachAt (not Publish): the start may precede the previous round's
	// end, and it clears a doomed coordinator's fence.
	if !joined || start != m.startVT {
		m.startVT, m.granted = start, false
		m.act(action{kind: actAttach, vt: start})
	}
	m.launchIfDrained()
	if m.opened++; m.opened > m.maxRounds {
		m.fail(-1, m.info.Round, PhaseSupervise, fmt.Errorf("more than %d recovery rounds", m.maxRounds))
	}
}

// launchIfDrained triggers the kill step once every doomed rank has
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
		m.act(action{kind: actLaunch, vt: m.startVT, info: m.info, fences: m.fences})
	}
}

// turn: the recovery endpoint holds the turn it asked for. A grant for a
// start a later join moved is stale; launchIfDrained asks again.
func (m *machine) turn(ev procEvent) {
	if m.phase != phDraining {
		m.impossible(ev)
		return
	}
	m.asking = false
	m.granted = ev.vt == m.startVT
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
	return added
}

// String is the deadlock report's account of what the supervisor waits for.
func (m *machine) String() string {
	s := fmt.Sprintf("phase %v, %d/%d finished, %d of at most %d rounds opened, pending %v",
		m.phase, m.finCount, m.np, m.opened, m.maxRounds, m.pending)
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

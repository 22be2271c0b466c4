package mpi

// Table tests of the failure-round machine: no goroutines, no network, no
// store. Every fixture is reached by stepping a fresh machine, so the
// tables also pin the transitions that lead into each phase.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hydee/internal/core"
	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

var testTopo = rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})

// Six ranks in three clusters of two, one-nanosecond minimum latency, a
// three-event plan (runaway cap 5).
func newTestMachine(prot rollback.Protocol, events int) *machine {
	return newMachine(6, prot, testTopo, vtime.Nanosecond, events)
}

func fmtAction(a action) string {
	switch a.kind {
	case actDoom:
		return fmt.Sprintf("doom %d@%d", a.id, int64(a.vt))
	case actAttach:
		return fmt.Sprintf("attach@%d", int64(a.vt))
	case actQuiesce:
		return fmt.Sprintf("quiesce %d", a.id)
	case actTurn:
		return fmt.Sprintf("turn@%d", int64(a.vt))
	case actLaunch:
		return fmt.Sprintf("launch round %d scope %v clusters %v detect %d fences %v start %d",
			a.info.Round, a.info.RolledBack, testTopo.ClustersOf(a.info.RolledBack), int64(a.info.DetectVT), a.fences, int64(a.vt))
	case actEmit:
		s := fmt.Sprintf("emit %v round %d rank %d ranks %v vt %d", a.ev.Kind, a.ev.Round, a.ev.Rank, a.ev.Ranks, int64(a.ev.VT))
		if a.ev.Stats != nil {
			s += fmt.Sprintf(" stats %+v", *a.ev.Stats)
		}
		return s
	case actRecord:
		return fmt.Sprintf("record round %d", a.stats.Round)
	case actFail:
		return "fail " + a.err.Error()
	}
	return fmt.Sprintf("action(%d)", a.kind)
}

func fmtActions(acts []action) []string {
	out := []string{}
	for _, a := range acts {
		out = append(out, fmtAction(a))
	}
	return out
}

// expect steps m and asserts the next phase and the exact action list.
func expect(t *testing.T, m *machine, ev procEvent, next phase, want ...string) {
	t.Helper()
	if want == nil {
		want = []string{}
	}
	got := fmtActions(m.step(ev))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v in: actions\n  got  %q\n  want %q", ev.kind, got, want)
	}
	if m.phase != next {
		t.Fatalf("%v in: phase %v, want %v", ev.kind, m.phase, next)
	}
}

func finishedIn(rank int, vt vtime.Time) procEvent {
	return procEvent{kind: evFinished, rank: rank, vt: vt}
}
func diedIn(rank int) procEvent { return procEvent{kind: evDied, rank: rank} }
func failIn(vt vtime.Time, ranks ...int) procEvent {
	return procEvent{kind: evFail, rank: ranks[0], vt: vt, ranks: ranks}
}
func doneIn(round int, end vtime.Time, err error) procEvent {
	return procEvent{kind: evRecoveryDone, err: err,
		stats: rollback.RecoveryStats{Round: round, RolledBack: 2, StartVT: 100, EndVT: end}}
}
func turnIn(vt vtime.Time) procEvent { return procEvent{kind: evTurn, vt: vt} }

// fixture steps a fresh machine into ph: round 0 rolls back cluster 1
// (ranks 2, 3) fenced at 100 and starts at 101; with pending, a failure of
// rank 4 detected at 150 is queued behind the launched round and dooms the
// coordinator (endpoint 6) with its scope. Idle and draining imply an
// empty queue (a failure admitted while a round drains joins it); the
// cells that say otherwise edit the queue directly.
func fixture(t *testing.T, ph phase, pending bool) *machine {
	t.Helper()
	m := newTestMachine(core.New(), 3)
	queued := failIn(150, 4)
	if ph != phIdle {
		expect(t, m, failIn(100, 2), phDraining,
			"emit failure round -1 rank -1 ranks [2] vt 100",
			"emit recovery-start round 0 rank -1 ranks [2 3] vt 100",
			"doom 2@100", "doom 3@100", "attach@101")
	}
	if ph == phIdle || ph == phDraining {
		if pending {
			m.pending = append(m.pending, queued)
		}
		return m
	}
	expect(t, m, diedIn(2), phDraining, "quiesce 2")
	expect(t, m, diedIn(3), phDraining, "quiesce 3", "turn@101")
	expect(t, m, turnIn(101), phRecovering,
		"launch round 0 scope [2 3] clusters [1] detect 100 fences map[1:100ns] start 101")
	if pending {
		expect(t, m, queued, phRecovering,
			"emit failure round -1 rank -1 ranks [4] vt 150", "doom 6@150", "doom 4@150", "doom 5@150")
	}
	return m
}

var errBoom = errors.New("boom")

var errKilled = fmt.Errorf("recv: %w", transport.ErrKilled)

// The eleven input classes of the phase × input table.
var inputClasses = []struct {
	name    string
	pending bool // the fixture has a queued failure
	in      procEvent
}{
	{"finished", false, finishedIn(0, 7)},
	{"died-in-drain-set", false, diedIn(2)},
	{"died-outside", false, diedIn(0)},
	{"fail", false, failIn(100, 0)},
	{"fatal", false, procEvent{kind: evFatal, rank: 1, vt: 9, err: errBoom}},
	{"recovery-done ok", false, doneIn(0, 140, nil)},
	{"recovery-done ok, pending", true, doneIn(0, 140, nil)},
	{"recovery-done ErrKilled", false, doneIn(0, 140, errKilled)},
	{"recovery-done ErrKilled, pending", true, doneIn(0, 140, errKilled)},
	{"recovery-done error", false, doneIn(0, 140, errBoom)},
	{"turn", false, turnIn(101)},
}

type cell struct {
	phase phase
	input string
}

// impossibleCells lists the cells no execution reaches: no coordinator runs
// before a launch, the drain set is empty outside the draining phase, and
// only a draining round asks for the turn and no request is in flight at
// its launch.
var impossibleCells = map[cell]bool{
	{phIdle, "died-in-drain-set"}:                    true,
	{phRecovering, "died-in-drain-set"}:              true,
	{phIdle, "recovery-done ok"}:                     true,
	{phIdle, "recovery-done ok, pending"}:            true,
	{phIdle, "recovery-done ErrKilled"}:              true,
	{phIdle, "recovery-done ErrKilled, pending"}:     true,
	{phIdle, "recovery-done error"}:                  true,
	{phDraining, "recovery-done ok"}:                 true,
	{phDraining, "recovery-done ok, pending"}:        true,
	{phDraining, "recovery-done ErrKilled"}:          true,
	{phDraining, "recovery-done ErrKilled, pending"}: true,
	{phDraining, "recovery-done error"}:              true,
	{phIdle, "turn"}:                                 true,
	{phRecovering, "turn"}:                           true,
}

// cellRows is the phase × input table: the next phase and the exact action
// list of every possible cell. DESIGN.md "Runtime lifecycle" carries the
// same table under the same row names.
var cellRows = map[cell]struct {
	next phase
	want []string
}{
	// idle
	{phIdle, "finished"}:     {phIdle, []string{"emit rank-finished round -1 rank 0 ranks [] vt 7"}},
	{phIdle, "died-outside"}: {phIdle, []string{"quiesce 0"}},
	{phIdle, "fail"}: {phDraining, []string{
		"emit failure round -1 rank -1 ranks [0] vt 100",
		"emit recovery-start round 0 rank -1 ranks [0 1] vt 100",
		"doom 0@100", "doom 1@100", "attach@101"}},
	{phIdle, "fatal"}: {phIdle, []string{"fail mpi: program rank 1: boom"}},

	// draining: round 0, scope [2 3] fenced at 100, start 101
	{phDraining, "finished"}:          {phDraining, []string{"emit rank-finished round 0 rank 0 ranks [] vt 7"}},
	{phDraining, "died-in-drain-set"}: {phDraining, []string{"quiesce 2"}}, // the last death launches: see the scenarios
	{phDraining, "died-outside"}:      {phDraining, []string{"quiesce 0"}},
	// A join: same round, same start, the widened scope announced again
	// and only the new cluster doomed, at its own detection time.
	{phDraining, "fail"}: {phDraining, []string{
		"emit failure round -1 rank -1 ranks [0] vt 100",
		"emit recovery-start round 0 rank -1 ranks [0 1 2 3] vt 100",
		"doom 0@100", "doom 1@100"}},
	{phDraining, "fatal"}: {phDraining, []string{"fail mpi: program rank 1 round 0: boom"}},
	// The turn is granted, but ranks 2 and 3 still drain (a join after the
	// request): the last death launches.
	{phDraining, "turn"}: {phDraining, nil},

	// recovering: round 0 launched, coordinator running; with pending,
	// (150 [4]) queued and the coordinator doomed at 150
	{phRecovering, "finished"}:     {phRecovering, []string{"emit rank-finished round 0 rank 0 ranks [] vt 7"}},
	{phRecovering, "died-outside"}: {phRecovering, []string{"quiesce 0"}},
	// The first queued failure dooms the coordinator with its scope.
	{phRecovering, "fail"}: {phRecovering, []string{
		"emit failure round -1 rank -1 ranks [0] vt 100", "doom 6@100", "doom 0@100", "doom 1@100"}},
	{phRecovering, "fatal"}: {phRecovering, []string{"fail mpi: program rank 1 round 0: boom"}},
	{phRecovering, "recovery-done ok"}: {phIdle, []string{
		"emit recovery-end round 0 rank -1 ranks [] vt 140 stats {Round:0 RolledBack:2 Orphans:0 StartVT:100ns EndVT:140ns CtlMsgs:0}",
		"record round 0", "quiesce 6"}},
	// The doomed coordinator completed within its fence: the round is
	// recorded and the queue opens a fresh round, as it would from idle.
	{phRecovering, "recovery-done ok, pending"}: {phDraining, []string{
		"emit recovery-end round 0 rank -1 ranks [] vt 140 stats {Round:0 RolledBack:2 Orphans:0 StartVT:100ns EndVT:140ns CtlMsgs:0}",
		"record round 0",
		"emit recovery-start round 1 rank -1 ranks [4 5] vt 150",
		"doom 4@150", "doom 5@150", "attach@151"}},
	// Nothing was queued, so nothing doomed the coordinator: a plain error.
	{phRecovering, "recovery-done ErrKilled"}: {phRecovering, []string{"fail mpi: recovery round 0: recv: transport: process killed"}},
	// The doomed coordinator stopped at its fence: a merged round with a
	// fresh number, the union scope and every old fence kept for the
	// restore cut. The scope is doomed one hop past the queued detection,
	// where the coordinator held the plane (ranks 4 and 5 keep their
	// earlier doom at 150), and the endpoint attaches one hop later.
	{phRecovering, "recovery-done ErrKilled, pending"}: {phDraining, []string{
		"emit recovery-start round 1 rank -1 ranks [2 3 4 5] vt 100",
		"doom 2@151", "doom 3@151", "doom 4@151", "doom 5@151", "attach@152"}},
	{phRecovering, "recovery-done error"}: {phRecovering, []string{"fail mpi: recovery round 0: boom"}},
}

func TestMachinePhaseInputTable(t *testing.T) {
	phases := []phase{phIdle, phDraining, phRecovering}
	if got, want := len(cellRows)+len(impossibleCells), len(phases)*len(inputClasses); got != want {
		t.Fatalf("table has %d cells, want every one of %d", got, want)
	}
	gotImpossible := map[cell]bool{}
	for _, ph := range phases {
		for _, ic := range inputClasses {
			c := cell{ph, ic.name}
			t.Run(fmt.Sprintf("%v/%s", ph, ic.name), func(t *testing.T) {
				m := fixture(t, ph, ic.pending)
				if ic.name == "died-in-drain-set" && ph != phDraining {
					m.drain[2] = true // the cell is unreachable by stepping
				}
				acts := m.step(ic.in)
				var se *stepError
				if n := len(acts); n == 1 && acts[0].kind == actFail && errors.As(acts[0].err, &se) {
					gotImpossible[c] = true
					if se.phase != ph || se.input != ic.in.kind {
						t.Errorf("stepError %v, want phase %v input %v", se, ph, ic.in.kind)
					}
					return
				}
				row, ok := cellRows[c]
				if !ok {
					t.Fatalf("cell has no row and did not fail as impossible: %q", fmtActions(acts))
				}
				want := row.want
				if want == nil {
					want = []string{}
				}
				if got := fmtActions(acts); !reflect.DeepEqual(got, want) {
					t.Errorf("actions\n  got  %q\n  want %q", got, want)
				}
				if m.phase != row.next {
					t.Errorf("next phase %v, want %v", m.phase, row.next)
				}
			})
		}
	}
	if !reflect.DeepEqual(gotImpossible, impossibleCells) {
		t.Errorf("impossible cells\n  got  %v\n  want %v", gotImpossible, impossibleCells)
	}
}

// allFinish finishes every rank and asserts the machine is then done.
func allFinish(t *testing.T, m *machine) {
	t.Helper()
	for r := 0; r < m.np; r++ {
		m.step(finishedIn(r, 900))
	}
	if !m.done() {
		t.Fatalf("machine not done: %v", m)
	}
}

func TestMachinePlainRound(t *testing.T) {
	m := newTestMachine(core.New(), 3)
	expect(t, m, finishedIn(3, 90), phIdle, "emit rank-finished round -1 rank 3 ranks [] vt 90")
	expect(t, m, failIn(100, 2), phDraining,
		"emit failure round -1 rank -1 ranks [2] vt 100",
		"emit recovery-start round 0 rank -1 ranks [2 3] vt 100",
		"doom 2@100", "doom 3@100", "attach@101")
	if m.finCount != 0 {
		t.Fatalf("rolled-back rank 3 still counted finished (%d)", m.finCount)
	}
	expect(t, m, diedIn(2), phDraining, "quiesce 2")
	expect(t, m, finishedIn(0, 120), phDraining, "emit rank-finished round 0 rank 0 ranks [] vt 120")
	expect(t, m, diedIn(3), phDraining, "quiesce 3", "turn@101")
	expect(t, m, turnIn(101), phRecovering,
		"launch round 0 scope [2 3] clusters [1] detect 100 fences map[1:100ns] start 101")
	expect(t, m, doneIn(0, 140, nil), phIdle,
		"emit recovery-end round 0 rank -1 ranks [] vt 140 stats {Round:0 RolledBack:2 Orphans:0 StartVT:100ns EndVT:140ns CtlMsgs:0}",
		"record round 0", "quiesce 6")
	allFinish(t, m)
}

func TestMachineTwoVictimsOneEvent(t *testing.T) {
	m := newTestMachine(core.New(), 3)
	expect(t, m, failIn(100, 2, 4), phDraining,
		"emit failure round -1 rank -1 ranks [2 4] vt 100",
		"emit recovery-start round 0 rank -1 ranks [2 3 4 5] vt 100",
		"doom 2@100", "doom 3@100", "doom 4@100", "doom 5@100", "attach@101")
	for _, r := range []int{4, 2, 5} {
		expect(t, m, diedIn(r), phDraining, fmt.Sprintf("quiesce %d", r))
	}
	expect(t, m, diedIn(3), phDraining, "quiesce 3", "turn@101")
	expect(t, m, turnIn(101), phRecovering,
		"launch round 0 scope [2 3 4 5] clusters [1 2] detect 100 fences map[1:100ns 2:100ns] start 101")
}

// Failures queued behind a recovering round chain behind it in one fresh
// round once its coordinator completes within the first one's fence: each
// cluster fenced at its own detection, the start one hop after the latest
// detection — even below the previous round's end. Only the first queued
// failure dooms the coordinator. Rank 4 unwound while queued (deadEarly)
// and never enters the drain set.
func TestMachineChainedRoundAndDeadEarly(t *testing.T) {
	m := fixture(t, phRecovering, false)
	expect(t, m, failIn(120, 4), phRecovering,
		"emit failure round -1 rank -1 ranks [4] vt 120", "doom 6@120", "doom 4@120", "doom 5@120")
	expect(t, m, diedIn(4), phRecovering, "quiesce 4")
	expect(t, m, failIn(180, 0), phRecovering,
		"emit failure round -1 rank -1 ranks [0] vt 180", "doom 0@180", "doom 1@180")
	expect(t, m, doneIn(0, 300, nil), phDraining,
		"emit recovery-end round 0 rank -1 ranks [] vt 300 stats {Round:0 RolledBack:2 Orphans:0 StartVT:100ns EndVT:300ns CtlMsgs:0}",
		"record round 0",
		"emit recovery-start round 1 rank -1 ranks [0 1 4 5] vt 120",
		"doom 0@180", "doom 1@180", "doom 4@120", "doom 5@120", "attach@181")
	if len(m.drain) != 3 || m.drain[4] || len(m.deadEarly) != 0 || len(m.pending) != 0 {
		t.Fatalf("drain %v deadEarly %v pending %v, want ranks 0, 1 and 5 draining and nothing queued",
			m.drain, m.deadEarly, m.pending)
	}
	m.step(diedIn(0))
	m.step(diedIn(1))
	expect(t, m, diedIn(5), phDraining, "quiesce 5", "turn@181")
	expect(t, m, turnIn(181), phRecovering,
		"launch round 1 scope [0 1 4 5] clusters [0 2] detect 120 fences map[0:180ns 2:120ns] start 181")
}

// A whole scope that unwound while queued asks for the turn in the step
// that opens it, and launches at the turn: there is nothing to drain. A
// completed coordinator's result that reaches the supervisor before the
// failure detected during its round gives the same round.
func TestMachineChainedRoundLaunchesAtOnce(t *testing.T) {
	end := "emit recovery-end round 0 rank -1 ranks [] vt 200 stats {Round:0 RolledBack:2 Orphans:0 StartVT:100ns EndVT:200ns CtlMsgs:0}"
	open := []string{"emit recovery-start round 1 rank -1 ranks [4 5] vt 150", "doom 4@150", "doom 5@150", "attach@151"}
	launch := "launch round 1 scope [4 5] clusters [2] detect 150 fences map[2:150ns] start 151"

	after := fixture(t, phRecovering, true)
	after.step(diedIn(4))
	after.step(diedIn(5))
	expect(t, after, doneIn(0, 200, nil), phDraining, append([]string{end, "record round 0"}, append(open, "turn@151")...)...)
	expect(t, after, turnIn(151), phRecovering, launch)

	before := fixture(t, phRecovering, false)
	expect(t, before, doneIn(0, 200, nil), phIdle, end, "record round 0", "quiesce 6")
	expect(t, before, failIn(150, 4), phDraining, append([]string{"emit failure round -1 rank -1 ranks [4] vt 150"}, open...)...)
	before.step(diedIn(4))
	expect(t, before, diedIn(5), phDraining, "quiesce 5", "turn@151")
	expect(t, before, turnIn(151), phRecovering, launch)
}

// A failure admitted while a round drains joins it under the same number.
// A same-cluster failure at the same detection time adds nothing, and rank
// 2, which already unwound, does not re-enter the drain set. A failure of
// another cluster, detected at the round's start while the turn is asked
// for, is fenced at its own detection, dooms only that cluster (finished
// ranks included) and moves the start one hop past it: the grant for the
// old start is stale, and the turn is asked for again once the new
// cluster drained. The queue stays empty throughout.
func TestMachineJoin(t *testing.T) {
	m := newTestMachine(core.New(), 3)
	expect(t, m, finishedIn(5, 90), phIdle, "emit rank-finished round -1 rank 5 ranks [] vt 90")
	expect(t, m, failIn(100, 2), phDraining,
		"emit failure round -1 rank -1 ranks [2] vt 100",
		"emit recovery-start round 0 rank -1 ranks [2 3] vt 100",
		"doom 2@100", "doom 3@100", "attach@101")
	expect(t, m, diedIn(2), phDraining, "quiesce 2")
	expect(t, m, failIn(100, 3), phDraining,
		"emit failure round -1 rank -1 ranks [3] vt 100",
		"emit recovery-start round 0 rank -1 ranks [2 3] vt 100")
	if len(m.drain) != 1 || !m.drain[3] {
		t.Fatalf("drain %v, want only rank 3", m.drain)
	}
	expect(t, m, diedIn(3), phDraining, "quiesce 3", "turn@101")
	expect(t, m, failIn(101, 4), phDraining,
		"emit failure round -1 rank -1 ranks [4] vt 101",
		"emit recovery-start round 0 rank -1 ranks [2 3 4 5] vt 100",
		"doom 4@101", "doom 5@101", "attach@102")
	if m.finCount != 0 || len(m.pending) != 0 {
		t.Fatalf("finished %d pending %v, want rank 5 un-finished and nothing queued", m.finCount, m.pending)
	}
	expect(t, m, turnIn(101), phDraining)
	expect(t, m, diedIn(4), phDraining, "quiesce 4")
	expect(t, m, diedIn(5), phDraining, "quiesce 5", "turn@102")
	expect(t, m, turnIn(102), phRecovering,
		"launch round 0 scope [2 3 4 5] clusters [1 2] detect 100 fences map[1:100ns 2:101ns] start 102")
}

// The same cluster fails again mid-recovery, and the coordinator stops at
// the new fence: the round is superseded by a merged round — fresh number,
// union scope, each cluster at its earliest fence for the restore cut,
// doomed one hop past the queued detection and attached a hop later — and
// a failure admitted at that start joins the merged round and moves its
// start one hop on. The launch needs no queued fence put back: the queue
// is empty.
func TestMachineSupersededMergedAndJoined(t *testing.T) {
	m := fixture(t, phRecovering, false)
	expect(t, m, failIn(130, 3), phRecovering,
		"emit failure round -1 rank -1 ranks [3] vt 130", "doom 6@130", "doom 2@130", "doom 3@130")
	expect(t, m, diedIn(3), phRecovering, "quiesce 3")
	expect(t, m, doneIn(0, 0, transport.ErrKilled), phDraining,
		"emit recovery-start round 1 rank -1 ranks [2 3] vt 100",
		"doom 2@131", "doom 3@131", "attach@132")
	expect(t, m, failIn(132, 0), phDraining,
		"emit failure round -1 rank -1 ranks [0] vt 132",
		"emit recovery-start round 1 rank -1 ranks [0 1 2 3] vt 100",
		"doom 0@132", "doom 1@132", "attach@133")
	m.step(diedIn(0))
	m.step(diedIn(1))
	expect(t, m, diedIn(2), phDraining, "quiesce 2", "turn@133")
	expect(t, m, turnIn(133), phRecovering,
		"launch round 1 scope [0 1 2 3] clusters [0 1] detect 100 fences map[0:132ns 1:100ns] start 133")
}

// The runaway cap is the schedule's event count plus two: the round opened
// after that many fails the run (satellite of the removed MaxRounds knob).
func TestMachineRoundCapFromSchedule(t *testing.T) {
	for _, events := range []int{0, 1, 3} {
		m := newTestMachine(core.New(), events)
		if m.maxRounds != events+2 {
			t.Fatalf("%d events: cap %d, want %d", events, m.maxRounds, events+2)
		}
		for i := 0; i < events+3; i++ {
			vt := vtime.Time(100 * (i + 1))
			acts := m.step(failIn(vt, 2))
			last := acts[len(acts)-1]
			if i < events+2 {
				if last.kind == actFail {
					t.Fatalf("%d events: round %d failed: %v", events, i+1, last.err)
				}
				m.step(diedIn(2))
				m.step(diedIn(3))
				m.step(turnIn(vt + 1))
				m.step(doneIn(i, vt+40, nil))
				continue
			}
			want := fmt.Sprintf("mpi: supervise round %d: more than %d recovery rounds", i, events+2)
			if last.kind != actFail || last.err.Error() != want {
				t.Fatalf("%d events: round %d: got %q, want %q", events, i+1, fmtActions(acts), want)
			}
		}
	}
}

func TestMachineIntolerantProtocolFails(t *testing.T) {
	m := newTestMachine(rollback.Native(), 1)
	expect(t, m, failIn(100, 2), phIdle,
		"emit failure round -1 rank -1 ranks [2] vt 100",
		`fail mpi: supervise: protocol "native" cannot tolerate the injected failure of ranks [2]`)
}

// The deadlock report's account of what a round waits for.
func TestMachineString(t *testing.T) {
	m := fixture(t, phDraining, false)
	m.step(diedIn(2))
	m.step(finishedIn(0, 7))
	want := "phase draining, 1/6 finished, 1 of at most 5 rounds opened, pending []; " +
		"round 0 scope [2 3] waiting on deaths map[3:true], fences map[1:100ns], start 101ns"
	if got := m.String(); got != want {
		t.Errorf("String\n  got  %s\n  want %s", got, want)
	}
	m.step(diedIn(3))
	want = "phase draining, 1/6 finished, 1 of at most 5 rounds opened, pending []; " +
		"round 0 scope [2 3] waiting on deaths map[], fences map[1:100ns], start 101ns and the turn there"
	if got := m.String(); got != want {
		t.Errorf("String\n  got  %s\n  want %s", got, want)
	}
	m = fixture(t, phRecovering, true)
	want = "phase recovering, 0/6 finished, 1 of at most 5 rounds opened, pending [(150ns [4])]; " +
		"round 0 scope [2 3] waiting on deaths map[], fences map[1:100ns], start 101ns"
	if got := m.String(); got != want {
		t.Errorf("String\n  got  %s\n  want %s", got, want)
	}
	if got, want := newTestMachine(core.New(), 0).String(),
		"phase idle, 0/6 finished, 0 of at most 2 rounds opened, pending []"; got != want {
		t.Errorf("idle String\n  got  %s\n  want %s", got, want)
	}
}

// Steady-state inputs (finishes, deaths) reuse the action buffer.
func TestMachineStepDoesNotAllocate(t *testing.T) {
	m := fixture(t, phRecovering, false)
	m.step(diedIn(0))
	evs := []procEvent{finishedIn(1, 7), diedIn(0)}
	if n := testing.AllocsPerRun(100, func() {
		for _, ev := range evs {
			m.step(ev)
		}
	}); n != 0 {
		t.Errorf("%v allocations per steady-state step batch, want 0", n)
	}
}

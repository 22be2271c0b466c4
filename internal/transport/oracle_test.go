package transport

// The delivery plane's reference model and the tests that hold the
// incremental index (plane.go) to it.
//
// oracleRefresh is the O(np) three-pass refresh every mutation used to run:
// it recomputes every bound, the three smallest, and the set of parked
// waiters whose condition holds, from nothing but the endpoints' own state.
// planeSim drives a Network through randomised mutation sequences without
// goroutines — a "parked" waiter is an endpoint whose receive or turn the
// driver entered through the locked step every wait takes, or pushed on the
// hand-off stack as a wait that lost the lock does — and compares plane
// and oracle at every serve round of every mutation (the plane's waveHook)
// and after it: identical bounds, identical low3, tree and list invariants,
// and a served set equal to the oracle's wake set of the round before (a
// missed serve is a deadlock, an extra one a delivery the gate did not
// admit). Every serve is held to the run the oracle pops for that waiter
// under the round's bounds — its queue heads, as many as the receive's
// verdict script keeps and one more, or a reap or ErrKilled — with exactly
// one token once the run settles the wait and none while it leaves it
// parked; every run to the take rule: the receiver's clock merges to the
// arrival stamp of every message that is not App and of an App message a
// take delivers, a Keep leaves it blocked at that clock and a Deliver or
// Stop running there; every entry to the entry rule: a receiver blocks at
// its clock, a turn's requester runs pinned at the turn unless dead or
// asking past its fence. A mutation may be
// a batch: several sends from one id, alone or fused with that endpoint's
// block or turn, or several requests, receives and turns mixed, drained from
// the stack by the next release of the lock; after every public call the
// stack must be empty. The same check holds the traffic edge list to a
// dense np×np PairStat matrix the simulation keeps from its own sends.

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

// oracleRefresh computes, in three full passes, each endpoint's action bound
// (by epList position), the three lexicographically smallest finite
// (bound, id) pairs, and the ids of the parked waiters whose condition holds
// under them.
func oracleRefresh(n *Network) (bounds []vtime.Time, low3 [3]boundRef, wake []int) {
	// Pass 1: caps, the smallest one and the first endpoint holding it.
	bounds = make([]vtime.Time, len(n.epList))
	m1 := infTime
	var a1 *Endpoint
	for p, e := range n.epList {
		cap := infTime
		switch e.state {
		case stRunning, stDead:
			cap = e.frontier
		case stBlocked:
			if len(e.q) > 0 {
				cap = e.frontier
				if h := e.q[0].ArriveVT; h > cap {
					cap = h
				}
			}
		}
		bounds[p] = cap // provisional; blocked non-minimal sources improve below
		if cap < m1 {
			m1, a1 = cap, e
		}
	}
	// Pass 2: blocked sources other than the cap-argmin are bounded by the
	// earliest arrival the rest of the plane can still emit, the idle
	// latent recovery source by the minimum cap, and a doomed latent
	// recovery source, in any state, by at most one hop past its fence.
	low3 = [3]boundRef{{infTime, -1}, {infTime, -1}, {infTime, -1}}
	for p, e := range n.epList {
		if e.state == stBlocked && e != a1 && m1 < infTime {
			b := m1.Add(n.minLat)
			if len(e.q) > 0 && e.q[0].ArriveVT < b {
				b = e.q[0].ArriveVT
			}
			if e.frontier > b {
				b = e.frontier
			}
			bounds[p] = b
		} else if e.state == stIdle && e == n.latent {
			bounds[p] = m1
		}
		if e == n.latent && e.doomVT < infTime {
			bounds[p] = min(bounds[p], e.doomVT.Add(n.minLat))
		}
		if bounds[p] < infTime {
			r := boundRef{bounds[p], e.id}
			switch {
			case r.less(low3[0]):
				low3[0], low3[1], low3[2] = r, low3[0], low3[1]
			case r.less(low3[1]):
				low3[1], low3[2] = r, low3[1]
			case r.less(low3[2]):
				low3[2] = r
			}
		}
	}
	// Pass 3: every parked waiter whose condition holds under those bounds.
	for _, e := range n.epList {
		if ready, _ := oracleServe(n, e, e.q, bounds); ready {
			wake = append(wake, e.id)
		}
	}
	return bounds, low3, wake
}

// oracleServe reports whether e's wait, with queue q, can take a step under
// the bounds oracleRefresh computed and, for a receive that pops, the
// message it pops; a step without one is a reap or ErrKilled, or a turn's
// grant or refusal. It reads every other source's bound, as the package
// comment states each condition, not low3.
func oracleServe(n *Network, e *Endpoint, q msgHeap, bounds []vtime.Time) (ready bool, pop *Msg) {
	// othersAbove reports whether every other source's finite
	// (bound+shift, id), skip's aside, sorts after (vt, tie).
	othersAbove := func(vt vtime.Time, tie int, skip int, shift vtime.Duration) bool {
		for p, o := range n.epList {
			if o == e || o.id == skip || bounds[p] == infTime {
				continue
			}
			if b := bounds[p].Add(shift); b < vt || (b == vt && o.id <= tie) {
				return false
			}
		}
		return true
	}
	switch e.waiting {
	case wRecv:
		fenced := e.doomVT < infTime
		switch {
		case e.state == stDead:
			return true, nil
		case len(q) > 0 && othersAbove(q[0].ArriveVT, q[0].Src, q[0].Src, n.minLat):
			if fenced && q[0].ArriveVT > e.doomVT.Add(n.minLat) {
				return true, nil
			}
			return true, q[0]
		case fenced && (len(q) == 0 || q[0].ArriveVT > e.doomVT.Add(n.minLat)):
			return othersAbove(e.doomVT, math.MaxInt, e.id, 0), nil
		}
	case wTurn:
		return e.state == stDead || e.at > e.doomVT || othersAbove(e.at, e.id, e.id, 0), nil
	}
	return false, nil
}

// oracleRun is the run of pops a due receive's serve makes under the
// round's bounds: the step goes on past every pop a's script keeps, until
// a pop it delivers or stops on, a reap or ErrKilled (killed) settles the
// wait (done), or the gate holds the next head back. Other sources' bounds
// stay the round's: a kept pop raises only e's own keys, which no check of
// e reads.
func oracleRun(n *Network, e *Endpoint, bounds []vtime.Time, a *simActor) (run []*Msg, done, killed bool) {
	q := slices.Clone(e.q)
	for keeps := a.keeps; ; keeps-- {
		ready, pop := oracleServe(n, e, q, bounds)
		if !ready || pop == nil {
			return run, ready, ready
		}
		run = append(run, heap.Pop(&q).(*Msg))
		if a.take == nil || keeps == 0 {
			return run, true, false
		}
	}
}

// simActor is the driver's view of one endpoint's goroutine.
type simActor struct {
	parked waitKind // what the driver parked it on (wNone: free to act)
	// queued marks a request on the hand-off stack, out its sends,
	// accounted once a drain takes the request. entered marks a request
	// the plane entered in the mutation in progress, before its first
	// round; pre and preF are the endpoint's state and frontier when the
	// driver made the request, and preOK says no call changed them since.
	queued, entered, preOK bool
	pre                    srcState
	preF                   vtime.Time
	out                    []*Msg
	// take is its pending receive's verdict script (nil: no take): Keep
	// keeps more times, then final. took lists the messages the plane
	// handed it since the last serve round.
	take  func(*Msg) Verdict
	keeps int
	final Verdict
	took  []*Msg
	// sendErr: one of its request's sends names no endpoint, so the
	// request is handed back at once with the error.
	sendErr bool
	// What the oracle said at the last serve round: due marks a wait the
	// round must step, run the messages the step pops, done that it
	// settles the wait, killed that it settles it with a reap or
	// ErrKilled, and granted a turn's grant; frontier and at are the
	// endpoint's before the serve.
	due, done, killed, granted bool
	run                        []*Msg
	frontier, at               vtime.Time
}

type planeSim struct {
	t      *testing.T
	n      *Network
	data   []byte
	actors map[int]*simActor
	ids    []int // every id the driver uses, endpoints or not
	drift  vtime.Time
	step   int
	what   string // the call in progress, for messages
	// tally counts what the run exercised: serves, requests a drain
	// entered (turns among them), serve rounds past a mutation's first,
	// and serve rounds that popped more than one message for one wait.
	tally struct{ served, drained, drainedTurns, cascades, multiPops int }
	first bool // the next round is its mutation's first
	// traffic is the dense np×np accounting the accepted sends imply: App
	// messages between application ranks, whatever the destination's
	// state.
	traffic []PairStat
}

// pick consumes one input byte as a choice among k; a used-up input keeps
// choosing 0 until the run loop notices.
func (s *planeSim) pick(k int) int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % k
}

// time returns a virtual time near the driver's slowly advancing present;
// the narrow window makes ties — equal caps, equal bounds, arrivals equal to
// thresholds — common.
func (s *planeSim) time() vtime.Time {
	if s.pick(4) == 0 {
		s.drift += vtime.Time(s.pick(6))
	}
	return s.drift + vtime.Time(s.pick(12))
}

func (s *planeSim) actor(id int) *simActor {
	a := s.actors[id]
	if a == nil {
		a = &simActor{}
		s.actors[id] = a
	}
	return a
}

// round is the plane's waveHook: a serve round is about to run.
func (s *planeSim) round() {
	if !s.first {
		s.tally.cascades++
	}
	s.first = false
	s.checkLocked(s.what+" round", false)
}

// checkLocked compares the plane with the oracle. It runs at every serve
// round (final false) and after every call (final true). First it settles
// the previous round: exactly the waiters the oracle called due were
// served, each with what the oracle said. Then it compares bounds, low3 and
// the index, and takes the oracle's wake set as the next round's due set;
// after a call, when no round follows, that set must be empty.
func (s *planeSim) checkLocked(what string, final bool) {
	s.t.Helper()
	n := s.n
	for _, e := range n.epList {
		s.settleLocked(what, e)
	}
	s.first = final
	bounds, low3, wake := oracleRefresh(n)
	for p, e := range n.epList {
		if e.pos != p || (p > 0 && n.epList[p-1].id >= e.id) {
			s.t.Fatalf("step %d %s: epList not in id order at position %d", s.step, what, p)
		}
		if got := n.boundLocked(e); got != bounds[p] {
			s.t.Fatalf("step %d %s: ep %d bound %d, oracle %d\n%s", s.step, what, e.id, got, bounds[p], s.dump())
		}
	}
	if n.low3 != low3 {
		s.t.Fatalf("step %d %s: low3 %v, oracle %v\n%s", s.step, what, n.low3, low3, s.dump())
	}
	for i, r := range low3 {
		if ep := n.low3ep[i]; (ep == nil) != (r.b == infTime) || (ep != nil && ep.id != r.id) {
			s.t.Fatalf("step %d %s: low3ep[%d] does not name low3[%d]=%v", s.step, what, i, i, r)
		}
	}
	for _, id := range wake {
		e, _ := n.lookupLocked(id)
		if final {
			s.t.Fatalf("step %d %s: MISSED SERVE: ep %d's condition holds and the mutation left it parked\n%s", s.step, what, id, s.dump())
		}
		a := s.actor(id)
		a.due, a.done, a.killed, a.run = true, true, true, nil
		if e.waiting == wRecv {
			a.run, a.done, a.killed = oracleRun(n, e, bounds, a)
		}
		a.granted = e.waiting == wTurn && e.state != stDead && e.at <= e.doomVT
		a.frontier, a.at = e.frontier, e.at
	}
	s.checkIndexLocked(what, final)
	s.checkTrafficLocked(what)
}

// settleLocked checks e against what the driver and the oracle expect of
// it: a parked waiter is served exactly when it was due, and a served one
// carries exactly the result the oracle said, under one token.
func (s *planeSim) settleLocked(what string, e *Endpoint) {
	s.t.Helper()
	a := s.actor(e.id)
	if a.queued {
		for r := s.n.reqs.Load(); r != nil; r = r.reqNext {
			if r == e {
				return // still on the stack
			}
		}
		a.queued = false
		s.tally.drained++
		if a.parked == wTurn {
			s.tally.drainedTurns++
		}
		a.sendErr = s.account(a.out)
		a.entered = true
	}
	if a.entered && !a.sendErr {
		a.entered = false
		if a.preOK {
			s.checkEntryLocked(what, e, a)
		}
		return // entered, and not served before its first round
	}
	if a.parked == wNone {
		if e.waiting != wNone {
			s.t.Fatalf("step %d %s: ep %d waits on %d, the driver parked nothing", s.step, what, e.id, e.waiting)
		}
		return
	}
	served := e.waiting == wNone
	switch {
	case served && !a.due && !a.sendErr:
		s.t.Fatalf("step %d %s: EXTRA SERVE: ep %d served while its condition failed\n%s", s.step, what, e.id, s.dump())
	case !served && (a.sendErr || a.due && a.done):
		s.t.Fatalf("step %d %s: MISSED SERVE: ep %d was due and is still parked\n%s", s.step, what, e.id, s.dump())
	case !served:
		if e.waiting != a.parked {
			s.t.Fatalf("step %d %s: ep %d waits on %d, the driver parked it on %d", s.step, what, e.id, e.waiting, a.parked)
		}
		if a.due {
			s.checkRunLocked(what, e, a, nil)
		} else if len(a.took) > 0 {
			s.t.Fatalf("step %d %s: ep %d popped %v while its condition failed", s.step, what, e.id, a.took)
		}
		a.due, a.took = false, nil
		return
	}
	select {
	case <-e.wake:
	default:
		s.t.Fatalf("step %d %s: ep %d served without a token", s.step, what, e.id)
	}
	select {
	case <-e.wake:
		s.t.Fatalf("step %d %s: ep %d got two tokens", s.step, what, e.id)
	default:
	}
	m, err := e.got, e.err
	e.got, e.err = nil, nil
	s.tally.served++
	switch {
	case a.sendErr:
		if m != nil || err == nil || err == ErrKilled {
			s.t.Fatalf("step %d %s: ep %d's request with a send to no endpoint returned %v, %v", s.step, what, e.id, m, err)
		}
	case a.granted:
		if err != nil {
			s.t.Fatalf("step %d %s: ep %d's turn refused with %v, the oracle grants it", s.step, what, e.id, err)
		}
	case a.killed:
		s.checkRunLocked(what, e, a, nil)
		if m != nil || err != ErrKilled {
			s.t.Fatalf("step %d %s: ep %d got %v, %v; the oracle reaps or kills it", s.step, what, e.id, m, err)
		}
		if e.state != stDead && e.state != stIdle {
			s.t.Fatalf("step %d %s: reaped ep %d left in state %d", s.step, what, e.id, e.state)
		}
	default:
		last := a.run[len(a.run)-1]
		if a.take != nil && a.final == Stop {
			last = nil
		}
		if m != last || err != nil {
			s.t.Fatalf("step %d %s: ep %d got %v, %v; the oracle's run ends with %v", s.step, what, e.id, m, err, last)
		}
		s.checkRunLocked(what, e, a, m)
	}
	*a = simActor{}
}

// checkRunLocked holds a receive's serve to the run the oracle predicted —
// the messages its take was handed — and to the take rule: its clock merged
// to the arrival stamp of every popped message that is not App and of
// delivered, the message a take delivers; blocked there while its run
// ended in a Keep, running there once a Deliver or Stop ended it. A reap
// leaves the state to the reap.
func (s *planeSim) checkRunLocked(what string, e *Endpoint, a *simActor, delivered *Msg) {
	s.t.Helper()
	if a.take != nil && !slices.Equal(a.took, a.run) {
		s.t.Fatalf("step %d %s: ep %d's take was handed %v, the oracle's run is %v\n%s", s.step, what, e.id, a.took, a.run, s.dump())
	}
	if len(a.took) > 1 {
		s.tally.multiPops++
	}
	at := a.at
	for _, m := range a.run {
		if m.Kind != App || (m == delivered && a.take != nil) {
			at = max(at, m.ArriveVT)
		}
	}
	state := stBlocked
	switch {
	case a.killed:
		return
	case a.done:
		state = stRunning
	}
	if e.state != state || e.frontier != max(a.frontier, at) {
		s.t.Fatalf("step %d %s: ep %d popped %v from clock %d (keeps left %d, final %d): state %d frontier %d, want %d at %d",
			s.step, what, e.id, a.run, a.at, a.keeps, a.final, e.state, e.frontier, state, max(a.frontier, at))
	}
}

// checkEntryLocked holds a request the plane just entered to the entry rule,
// from the endpoint's state before it: the request's own sends raise the
// frontier and promote an idle sender, then a receiver blocks at its clock,
// and a turn's requester runs with its frontier pinned at the turn — unless
// the endpoint is dead, or the turn lies past its fence.
func (s *planeSim) checkEntryLocked(what string, e *Endpoint, a *simActor) {
	s.t.Helper()
	state, f := a.pre, a.preF
	for _, m := range a.out {
		if state != stDead {
			f = max(f, m.SendVT)
			if state == stIdle {
				state = stRunning
			}
		}
	}
	switch {
	case state == stDead:
	case a.parked == wRecv:
		state, f = stBlocked, max(f, e.at)
	case e.at <= e.doomVT:
		state, f = stRunning, max(f, e.at)
	}
	if e.waiting != a.parked || e.state != state || e.frontier != f {
		s.t.Fatalf("step %d %s: ep %d entered a wait on %d at %d (fence %d) from state %d frontier %d: waits on %d, state %d frontier %d, want state %d frontier %d\n%s",
			s.step, what, e.id, a.parked, e.at, e.doomVT, a.pre, a.preF, e.waiting, e.state, e.frontier, state, f, s.dump())
	}
}

// checkTrafficLocked compares the edge list with the dense matrix: sorted
// by (src, dst), one entry for exactly the non-empty pairs, equal counts.
func (s *planeSim) checkTrafficLocked(what string) {
	s.t.Helper()
	np := s.n.np
	edges := s.n.statsLocked()
	nonEmpty := 0
	for _, st := range s.traffic {
		if st.Msgs > 0 {
			nonEmpty++
		}
	}
	if len(edges) != nonEmpty {
		s.t.Fatalf("step %d %s: %d traffic edges, the send log has %d used pairs", s.step, what, len(edges), nonEmpty)
	}
	for i, e := range edges {
		if i > 0 && (edges[i-1].Src > e.Src || (edges[i-1].Src == e.Src && edges[i-1].Dst >= e.Dst)) {
			s.t.Fatalf("step %d %s: traffic edges out of (src, dst) order at %d: %+v", s.step, what, i, edges)
		}
		if e.Src < 0 || e.Src >= np || e.Dst < 0 || e.Dst >= np || e.PairStat != s.traffic[e.Src*np+e.Dst] {
			s.t.Fatalf("step %d %s: traffic edge %+v, the send log has %+v", s.step, what, e, s.traffic[e.Src*np+e.Dst])
		}
	}
}

// checkIndexLocked verifies the index's own invariants: every leaf holds the key
// its endpoint's state implies, every inner node the minimum of its
// children, and the per-source waiter lists hold exactly the parked
// receivers whose head their source sent. At a serve round (not final) the
// round's own touched endpoints are exempt from the last two: their wake
// entries are refreshed after the round.
func (s *planeSim) checkIndexLocked(what string, final bool) {
	s.t.Helper()
	n := s.n
	inRound := map[*Endpoint]bool{}
	if !final {
		for _, e := range n.wave {
			inRound[e] = true
		}
	}
	for _, tr := range [][]vtime.Time{n.capT, n.bfT} {
		for i := 1; i < n.leaves; i++ {
			if tr[i] != min(tr[2*i], tr[2*i+1]) {
				s.t.Fatalf("step %d %s: tree node %d is not the minimum of its children", s.step, what, i)
			}
		}
		for p := len(n.epList); p < n.leaves; p++ {
			if tr[n.leaves+p] != infTime {
				s.t.Fatalf("step %d %s: unused leaf %d is finite", s.step, what, p)
			}
		}
	}
	for i := 1; i < n.leaves; i++ {
		l, r := n.waitT[2*i], n.waitT[2*i+1]
		if r.less(l) {
			l = r
		}
		if n.waitT[i] != l {
			s.t.Fatalf("step %d %s: wait tree node %d is not the minimum of its children", s.step, what, i)
		}
	}
	onList := map[*Endpoint]*Endpoint{}
	for _, src := range n.epList {
		var prev *Endpoint
		for w := src.srcWaiters; w != nil; prev, w = w, w.srcNext {
			if w.srcPrev != prev || w.headSrc != src || onList[w] != nil {
				s.t.Fatalf("step %d %s: waiter list of ep %d is malformed at ep %d", s.step, what, src.id, w.id)
			}
			onList[w] = src
		}
	}
	for _, e := range n.epList {
		if inRound[e] {
			continue
		}
		key := noWait
		var src *Endpoint
		if e.waiting == wTurn {
			key = waitKey{e.at.Add(n.minLat), e.id}
		}
		if e.waiting == wRecv {
			if e.doomVT < infTime {
				key = waitKey{e.doomVT.Add(n.minLat), math.MaxInt}
			}
			if len(e.q) > 0 {
				if k := (waitKey{e.q[0].ArriveVT, e.q[0].Src}); k.less(key) {
					key = k
				}
				src, _ = n.lookupLocked(e.q[0].Src)
			}
		}
		if got := n.waitT[n.leaves+e.pos]; got != key {
			s.t.Fatalf("step %d %s: ep %d wait key %v, want %v", s.step, what, e.id, got, key)
		}
		if onList[e] != src || e.headSrc != src {
			s.t.Fatalf("step %d %s: ep %d is on the wrong source's waiter list", s.step, what, e.id)
		}
	}
}

func (s *planeSim) dump() string { return s.n.debugStateLocked() }

// public runs one public call and checks the plane at every serve round
// and after it. The call released the lock through unlock, which must have
// drained the hand-off stack.
func (s *planeSim) public(what string, f func()) {
	s.t.Helper()
	s.what = what
	if what != "drain" {
		// The call may change a queued requester before its unlock drains
		// the stack.
		for _, a := range s.actors {
			a.preOK = a.preOK && !a.queued
		}
	}
	f()
	s.n.dmu.Lock()
	defer s.n.dmu.Unlock()
	s.checkLocked(what, true)
	if s.n.reqs.Load() != nil {
		s.t.Fatalf("step %d %s: LOST REQUEST: the call released the lock with receive requests on the stack", s.step, what)
	}
}

// account adds what a send call enqueues to the driver's dense traffic
// matrix — App messages between application ranks, whatever the
// destination's state — before the call, whose serve rounds check the
// matrix, and reports whether a message names no endpoint, so the call
// must fail.
func (s *planeSim) account(out []*Msg) (unknown bool) {
	n := s.n
	for _, m := range out {
		if to, _ := n.lookupLocked(m.Dst); to == nil {
			unknown = true
			continue
		}
		if m.Kind == App && m.Src >= 0 && m.Src < n.np && m.Dst >= 0 && m.Dst < n.np {
			st := &s.traffic[m.Src*n.np+m.Dst]
			st.Msgs++
			st.Bytes += int64(m.WireLen)
			st.PiggyBytes += int64(m.PiggyLen)
		}
	}
	return unknown
}

// send runs a send call and checks its error against the endpoints its
// messages name.
func (s *planeSim) send(what string, out []*Msg, call func() error) {
	s.t.Helper()
	unknown := s.account(out)
	s.public(what, func() {
		if err := call(); (err != nil) != unknown {
			s.t.Fatalf("step %d: sends %v: err %v", s.step, out, err)
		}
	})
}

// msg draws one message from id to a random id (an endpoint or not).
func (s *planeSim) msg(id int) *Msg {
	dst := s.ids[s.pick(len(s.ids))]
	kind := []Kind{App, Ctl, Marker}[s.pick(3)]
	wire := []int{0, 16, 100}[s.pick(3)]
	piggy := []int{0, 8}[s.pick(2)]
	return &Msg{Src: id, Dst: dst, Kind: kind, WireLen: wire, PiggyLen: piggy, SendVT: s.time()}
}

// request prepares e's request the way wait does — kind, out stamped, clock
// or turn and, for a receive, no take or a seeded verdict script: Keep up to
// three times, then Deliver or Stop — and parks its actor on it. A queued
// request's sends are accounted when a drain takes it.
func (s *planeSim) request(e *Endpoint, kind waitKind, out []*Msg, at vtime.Time, queued bool) {
	a := s.actor(e.id)
	*a = simActor{parked: kind, queued: queued, entered: !queued, preOK: true, pre: e.state, preF: e.frontier, out: out}
	if kind == wRecv {
		if v := s.pick(3); v > 0 {
			a.final, a.keeps = []Verdict{Deliver, Stop}[v-1], s.pick(4)
			a.take = func(m *Msg) Verdict {
				a.took = append(a.took, m)
				if a.keeps == 0 {
					return a.final
				}
				a.keeps--
				return Keep
			}
		}
	}
	s.n.stampAll(out)
	if !queued {
		a.sendErr = s.account(out)
	}
	e.kind, e.out, e.at, e.take = kind, out, at, a.take
}

// enter is a wait — a FlushRecv or a FlushAwaitTurn — whose TryLock
// succeeds: its request enters as a batch of one.
func (s *planeSim) enter(e *Endpoint, kind waitKind, out []*Msg, at vtime.Time) {
	n := s.n
	s.request(e, kind, out, at, false)
	s.what = map[waitKind]string{wRecv: "recv", wTurn: "turn"}[kind]
	n.dmu.Lock()
	defer n.dmu.Unlock()
	n.receiveLocked([]*Endpoint{e})
	s.checkLocked(s.what, true)
}

// requests are waits that lost the lock, receives and turns: each pushes
// its request on the stack, where the next release of the lock — the next
// public call, or a pusher's own drain — finds them all.
func (s *planeSim) requests() {
	n := s.n
	from := s.pick(len(n.epList))
	for i, k := 0, 1+s.pick(4); i < len(n.epList) && k > 0; i++ {
		e := n.epList[(from+i)%len(n.epList)]
		if s.actor(e.id).parked != wNone {
			continue
		}
		var out []*Msg
		for j := s.pick(4) - 1; j > 0; j-- {
			out = append(out, s.msg(e.id))
		}
		at := s.time()
		kind := wRecv
		if s.pick(3) == 2 {
			kind = wTurn
		}
		s.request(e, kind, out, at, true)
		n.pushRequest(e)
		k--
	}
	if s.pick(2) == 0 {
		s.public("drain", n.drain)
	}
}

// tryRecv is Endpoint.TryRecv with a check between its two mutations.
func (s *planeSim) tryRecv(e *Endpoint, now vtime.Time) {
	n := s.n
	s.what = "tryrecv"
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if e.state == stDead {
		return
	}
	if e.frontier < now {
		e.frontier = now
		n.planeChangedLocked(e)
		s.checkLocked("tryrecv frontier", true)
	}
	e.at, e.take = now, nil
	e.recvStepLocked()
	e.got, e.err = nil, nil
	n.planeChangedLocked()
	s.checkLocked("tryrecv step", true)
}

func (s *planeSim) run() {
	n := s.n
	n.waveHook = s.round
	n.dmu.Lock()
	s.checkLocked("initial", true)
	n.dmu.Unlock()
	nextService := n.np
	for len(s.data) > 0 {
		s.step++
		id := s.ids[s.pick(len(s.ids))]
		e, _ := n.lookupLocked(id) // nil for an id that is no endpoint (yet)
		free := e != nil && s.actor(id).parked == wNone
		// The supervisor mostly leaves parked ranks alone; acting on them
		// every time would keep the plane from ever filling with blocked
		// sources.
		loose := free || s.pick(4) == 0
		switch op := s.pick(26); {
		case op < 6: // send, from any id (endpoint or not) to any id
			m := s.msg(id)
			s.send("send", []*Msg{m}, func() error { return n.Send(m) })
		case op < 8 && e != nil && loose:
			vt := s.time()
			s.public("publish", func() { n.Publish(id, vt) })
		case op < 11 && free:
			s.enter(e, wRecv, nil, s.time())
		case op < 12 && free:
			s.tryRecv(e, s.time())
		case op < 13 && free:
			// The public call, which mutates once when the clock is not ahead
			// of the frontier.
			s.public("TryRecv", func() { _, _, _ = e.TryRecv(0) })
		case op < 14 && e != nil && loose:
			s.public("quiesce", func() { n.Quiesce(id) })
		case op < 16 && free:
			s.enter(e, wTurn, nil, s.time())
		case op < 17 && e != nil:
			d := s.time()
			s.public("doom", func() { n.Doom(id, d) })
		case op < 18 && e != nil && e.state != stDead && s.pick(3) == 0:
			s.public("kill", func() {
				if inc := n.Kill(id); (inc != 0) != (id >= 0 && id < n.np) {
					s.t.Fatalf("step %d: Kill(%d) returned incarnation %d", s.step, id, inc)
				}
			})
		case op < 19 && e != nil && (e.state == stDead || loose):
			vt := s.time()
			if id >= 0 && id < n.np {
				s.public("restart", func() { n.RestartAt(id, vt) })
			} else {
				s.public("restart service", func() { n.RestartAt(id, vt) })
			}
		case op < 20 && e != nil && loose:
			vt := s.time()
			s.public("attach", func() { n.AttachAt(id, vt) })
		case op < 21:
			if id >= n.np {
				s.public("declare recovery", func() { n.DeclareRecovery(id) })
			}
		case op < 22:
			// Late service endpoint: a bare id that traffic may already name,
			// or a new one, sometimes sorting below the existing ids.
			if e == nil {
				s.public("create endpoint", func() { n.Endpoint(id) })
				break
			}
			nextService += 1 + s.pick(2)
			nid := nextService
			if s.pick(4) == 0 {
				nid = -nextService
			}
			s.ids = append(s.ids, nid)
			if s.pick(2) == 0 { // else it stays a bare id for now
				s.public("create endpoint", func() { n.Endpoint(nid) })
			}
		case op < 24:
			// A burst: several sends from one id as one batch, on their own
			// or fused with the sender's block or turn.
			out := make([]*Msg, 2+s.pick(4))
			for i := range out {
				out[i] = s.msg(id)
			}
			if free {
				if k := s.pick(3); k < 2 {
					s.enter(e, []waitKind{wRecv, wTurn}[k], out, s.time())
					break
				}
			}
			s.send("batch", out, func() error { return n.SendBatch(out) })
		default:
			s.requests()
		}
	}
}

// runPlaneSim interprets data as a mutation sequence on a small plane.
func runPlaneSim(t *testing.T, data []byte) *planeSim {
	s := &planeSim{t: t, data: data, actors: map[int]*simActor{}}
	np := 1 + s.pick(16)
	lat := vtime.Duration(s.pick(8))
	model := &netmodel.LogGP{
		ModelName:     "sim",
		Steps:         []netmodel.LatencyStep{{MaxBytes: 8, Lat: lat}, {MaxBytes: 64, Lat: lat + 2}},
		RendezvousLat: lat + 5,
		BytesPerSec:   1e18,
	}
	s.n = NewNetwork(np, model)
	s.traffic = make([]PairStat, np*np)
	for i := 0; i < np; i++ {
		s.ids = append(s.ids, i)
	}
	s.ids = append(s.ids, -1, np) // the supervisor's source id and the recovery id
	s.run()
	return s
}

// TestPlaneOracle holds the incremental plane to the O(np) oracle over
// fixed-seed random mutation sequences.
func TestPlaneOracle(t *testing.T) {
	seeds, steps := 200, 1600
	if testing.Short() {
		seeds = 40
	}
	var served, drained, drainedTurns, cascades, multiPops int
	for seed := 0; seed < seeds; seed++ {
		data := make([]byte, steps)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		s := runPlaneSim(t, data)
		served += s.tally.served
		drained += s.tally.drained
		drainedTurns += s.tally.drainedTurns
		cascades += s.tally.cascades
		multiPops += s.tally.multiPops
	}
	t.Logf("%d serves, %d requests entered by a drain (%d turns), %d serve rounds past a mutation's first, %d steps popping more than one message",
		served, drained, drainedTurns, cascades, multiPops)
	if served == 0 || drainedTurns == 0 || drained == drainedTurns || cascades == 0 || multiPops == 0 {
		t.Errorf("the seeds no longer exercise serves, drained receives and turns, serve cascades and multi-pop serves alike")
	}
}

// FuzzPlaneOracle lets the fuzzer search for a mutation sequence on which
// plane and oracle disagree. testdata/fuzz/FuzzPlaneOracle keeps inputs it
// found that its four seeds never reach; batch-staleness (six bytes) is a
// drained batch of receive requests in which only an endpoint entered after
// the first two moves low3, so it fails if staleness is judged on fewer
// than all the touched endpoints; keep-past-fence fails if a step pops on
// past the death fence after a Keep, kept-marker-merge if a kept Marker
// leaves the clock unmerged, keep-merged-clock if a Keep re-blocks at the
// clock the wait started with.
func FuzzPlaneOracle(f *testing.F) {
	for seed := 0; seed < 4; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(int64(100 + seed))).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPlaneSim(t, data) })
}

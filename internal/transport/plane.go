package transport

import (
	"math"
	"math/bits"

	"hydee/internal/vtime"
)

// The incremental delivery-plane index: what a mutation must recompute, and
// whom it must wake, without visiting every endpoint. See the package
// comment ("Incremental bounds and change-driven wakeups") and DESIGN.md.

// Counters are host-side work counters of one delivery plane, maintained
// under the plane lock. They count how the plane's callers interleaved —
// which waits one Enter batch held, how far a served waiter got before the
// plane moved again, whether a message reached a mailbox before or after
// the kill that wipes it — so they describe a run's cost, never its
// outcome, and stay out of every byte-reproducible output. They are as
// reproducible as that interleaving: under the runtime's one driver per
// run, which resumes ranks in an order fixed by the run alone, a run gives
// the same counters on any number of cores; under the default Driver they
// depend on goroutine scheduling.
type Counters struct {
	// Mutations counts plane mutations: sends, wait entries, deliveries,
	// publishes, quiesces, dooms, kills, restarts. A batch — the sends one
	// call flushes, together with the publish they precede, or every wait
	// one Enter commits, with their sends — counts once.
	Mutations int64
	// Visited counts tree nodes touched plus waiters gate-checked: the
	// plane's own work, O(log np) per mutation plus what it wakes.
	Visited int64
	// Low3Changes counts mutations that changed the three smallest bounds.
	Low3Changes int64
	// Parks counts waits that outlasted the mutation entering them, Served
	// the parked waits a later mutation finished (the package comment's
	// serve rule). Each park is served exactly once, so once every waiter's
	// goroutine has returned the two are equal.
	Served, Parks int64
	// Delivered counts messages popped by receives, Kept those of them a
	// take callback consumed without returning them to the owner (Keep or
	// Stop), TurnGrants the turns granted.
	Delivered, Kept, TurnGrants int64
}

// Counters returns a snapshot of the plane's work counters.
func (n *Network) Counters() Counters {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.ctr
}

// ---------------------------------------------------------------------------
// Tournament trees.
//
// A tree is a flat array of 2·leaves keys: leaf p (an epList position) lives
// at index leaves+p, node i holds the minimum of its children 2i and 2i+1,
// and index 1 is the global minimum. Positions are in id order, so "leftmost"
// is the (key, id) tiebreak.

// treeSetLocked stores v at leaf pos of t and repairs the minima above it,
// stopping at the first ancestor whose minimum does not move.
func (n *Network) treeSetLocked(t []vtime.Time, pos int, v vtime.Time) {
	i := n.leaves + pos
	if t[i] == v {
		return
	}
	t[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		n.ctr.Visited++
		m := min(t[2*i], t[2*i+1])
		if t[i] == m {
			return
		}
		t[i] = m
	}
}

// noFloor is a treeLowest3Locked floor below every key.
const noFloor = vtime.Time(math.MinInt64)

// treeLowest3Locked writes to out the positions of the (up to) three
// smallest finite leaves of t by (max(key, floor), position) and returns how
// many it found. The floor flattens every key at or below it into one tie
// that position order breaks, which is the order the (bound, id) pairs of
// blocked sources take once their frontiers are clamped up to m1+minLat.
//
// It is a best-first search that writes nothing: descend to the best leaf,
// setting aside the sibling subtree passed over at each level; the next best
// leaf is in the best subtree set aside so far. Subtrees cover disjoint
// position ranges, so (clamped minimum, leftmost position) orders them
// exactly as it orders their best leaves.
func (n *Network) treeLowest3Locked(t []vtime.Time, floor vtime.Time, out *[3]int) int {
	if t[1] == infTime {
		return 0
	}
	aside := n.aside[:0]
	k := 0
	for at := (subtree{node: 1}); ; {
		node, lo := int(at.node), int(at.lo)
		for half := n.leaves >> (bits.Len(uint(node)) - 1); node < n.leaves; {
			n.ctr.Visited++
			node *= 2
			half /= 2
			l, r := t[node], t[node+1]
			if l <= max(r, floor) {
				if r < infTime {
					aside = append(aside, subtree{max(r, floor), int32(node + 1), int32(lo + half)})
				}
			} else {
				if l < infTime {
					aside = append(aside, subtree{l, int32(node), int32(lo)}) // l > floor
				}
				node++
				lo += half
			}
		}
		out[k] = lo
		if k++; k == 3 || len(aside) == 0 {
			break
		}
		best := 0
		for j := 1; j < len(aside); j++ {
			if a, b := aside[j], aside[best]; a.key < b.key || (a.key == b.key && a.lo < b.lo) {
				best = j
			}
		}
		at = aside[best]
		aside[best] = aside[len(aside)-1]
		aside = aside[:len(aside)-1]
	}
	return k
}

// subtree is a tree node set aside by treeLowest3Locked: its minimum
// clamped to the floor, its index and its leftmost position.
type subtree struct {
	key      vtime.Time
	node, lo int32
}

// waitKey is a parked waiter's key in the wake index: the smallest value the
// threshold (low3[0].b+minLat, low3[0].id) must exceed, lexicographically,
// before the waiter's condition can hold against low3[0]. Ties in time are
// the norm, not the exception — ranks of a symmetric application carry
// identical clocks — so the tiebreak is part of the key: without it every
// low3 change would revisit every waiter tied with the threshold.
type waitKey struct {
	vt  vtime.Time
	tie int
}

// noWait is the key of an endpoint that is not in the wake index, and the
// threshold every real key is below.
var noWait = waitKey{infTime, math.MaxInt}

func (k waitKey) less(o waitKey) bool {
	return k.vt < o.vt || (k.vt == o.vt && k.tie < o.tie)
}

// waitSetLocked is treeSetLocked for the wait tree.
func (n *Network) waitSetLocked(pos int, k waitKey) {
	t := n.waitT
	i := n.leaves + pos
	if t[i] == k {
		return
	}
	t[i] = k
	for i >>= 1; i >= 1; i >>= 1 {
		n.ctr.Visited++
		m := t[2*i]
		if t[2*i+1].less(m) {
			m = t[2*i+1]
		}
		if t[i] == m {
			return
		}
		t[i] = m
	}
}

// waitNextLocked returns the leftmost position >= from whose wait key is
// below thr, or -1. Successive calls enumerate the qualifying waiters in
// O(log) each.
func (n *Network) waitNextLocked(from int, thr waitKey) int {
	if from >= n.leaves {
		return -1
	}
	t := n.waitT
	i := n.leaves + from
	for {
		n.ctr.Visited++
		if t[i].less(thr) {
			for i < n.leaves { // leftmost qualifying leaf below i
				n.ctr.Visited++
				i *= 2
				if !t[i].less(thr) {
					i++
				}
			}
			return i - n.leaves
		}
		// Nothing under i: climb out of every subtree that ends here, then
		// step to the next one on the right.
		for i&1 == 1 {
			if i == 1 {
				return -1
			}
			i >>= 1
		}
		i++
	}
}

// ---------------------------------------------------------------------------
// Bounds.

// boundLocked is e's action bound: no send or checkpoint write by e can be
// issued before it. It is a pure function of e's own indexed keys, its
// fence and the plane's minimum cap m1, so nothing stores it:
//
//	running, dead:  frontier
//	blocked:        min(cap, max(frontier, m1+minLat))
//	idle:           m1 for the latent recovery source, else infinity
//
// The blocked case is the one identity for every blocked source. For a
// source other than the cap-argmin it is the transitive bound
// max(frontier, min(head, m1+minLat)) with min and max distributed (cap is
// max(frontier, head)). For the argmin, cap = m1 < m1+minLat, so the outer
// min selects cap — exactly the bound its head earns by preceding anything
// the rest of the plane can still emit.
//
// A doomed latent source — a recovery coordinator a queued failure
// stopped — is bounded by at most doomVT+minLat in every state, the
// earliest point the round that replaces it starts or dooms its scope at:
// the gate admits nothing that round could undercut or cut short until
// AttachAt or RestartAt clears the fence.
func (n *Network) boundLocked(e *Endpoint) vtime.Time {
	m1, b := n.capT[1], infTime
	switch e.state {
	case stRunning, stDead:
		b = e.frontier
	case stBlocked:
		if m1 < infTime {
			b = min(n.capT[n.leaves+e.pos], max(e.frontier, m1.Add(n.minLat)))
		}
	case stIdle:
		if e == n.latent {
			b = m1
		}
	}
	if e == n.latent && e.doomVT < infTime {
		b = min(b, e.doomVT.Add(n.minLat))
	}
	return b
}

// lowInsert places r into the sorted triple low unless it is infinite,
// sorts after all three, or names an endpoint already present.
func lowInsert(low *[3]boundRef, lowEp *[3]*Endpoint, r boundRef, e *Endpoint) {
	if r.b == infTime || e == lowEp[0] || e == lowEp[1] || e == lowEp[2] {
		return
	}
	switch {
	case r.less(low[0]):
		low[0], low[1], low[2] = r, low[0], low[1]
		lowEp[0], lowEp[1], lowEp[2] = e, lowEp[0], lowEp[1]
	case r.less(low[1]):
		low[1], low[2] = r, low[1]
		lowEp[1], lowEp[2] = e, lowEp[1]
	case r.less(low[2]):
		low[2] = r
		lowEp[2] = e
	}
}

// low3Locked computes the three lexicographically smallest finite
// (bound, id) pairs. A bound is min(cap, g) with g = max(frontier, m1+minLat)
// for blocked sources and infinity otherwise, so a source among the three
// smallest bounds is among the three smallest by (cap, id) or among the three
// smallest by (g, id) — three others sorting before it in either order would
// have bounds sorting before its own. Both triples come from descents; the
// latent recovery source, which is in neither tree while idle and may be
// held below its keys while doomed, is the seventh candidate — even when m1
// is infinite and nothing else can act.
func (n *Network) low3Locked(low *[3]boundRef, lowEp *[3]*Endpoint) {
	*low = [3]boundRef{{infTime, -1}, {infTime, -1}, {infTime, -1}}
	*lowEp = [3]*Endpoint{}
	if e := n.latent; e != nil {
		lowInsert(low, lowEp, boundRef{n.boundLocked(e), e.id}, e)
	}
	m1 := n.capT[1]
	if m1 == infTime {
		return // nothing else can act: every other bound is infinite
	}
	var pos [3]int
	for _, p := range pos[:n.treeLowest3Locked(n.capT, noFloor, &pos)] {
		e := n.epList[p]
		lowInsert(low, lowEp, boundRef{n.boundLocked(e), e.id}, e)
	}
	for _, p := range pos[:n.treeLowest3Locked(n.bfT, m1.Add(n.minLat), &pos)] {
		e := n.epList[p]
		lowInsert(low, lowEp, boundRef{n.boundLocked(e), e.id}, e)
	}
}

// low3StaleLocked reports whether the mutation that touched e may have
// changed low3: e was in it, or e's new bound sorts into it. If neither holds
// for any touched endpoint, low3 stands. The minimum cap m1 cannot have
// risen: every holder of the old minimum would have been touched, and every
// holder's bound is m1, the smallest any bound can be but a doomed latent
// source's — so if there were two or fewer of them all were in low3, and if
// there were more, at least one of the touched was. It cannot have fallen:
// the endpoint that lowered it now has a bound below every other but that
// latent source's, which sorts into low3. And with m1 unmoved no untouched
// source's bound moved.
func (n *Network) low3StaleLocked(e *Endpoint) bool {
	if e == n.low3ep[0] || e == n.low3ep[1] || e == n.low3ep[2] {
		return true
	}
	b := n.boundLocked(e)
	return b < infTime && boundRef{b, e.id}.less(n.low3[2])
}

// ---------------------------------------------------------------------------
// Index maintenance and wake-ups.

// reindexLocked recomputes e's bound keys — cap and blocked frontier —
// after a mutation touched it. Its wake-index entry follows once the serve
// round has run (planeChangedLocked).
func (n *Network) reindexLocked(e *Endpoint) {
	cap, bf := infTime, infTime
	switch e.state {
	case stRunning, stDead:
		cap = e.frontier
	case stBlocked:
		bf = e.frontier
		if len(e.q) > 0 {
			cap = max(e.frontier, e.q[0].ArriveVT)
		}
	}
	n.treeSetLocked(n.capT, e.pos, cap)
	n.treeSetLocked(n.bfT, e.pos, bf)
}

// indexWaiterLocked files e in the wake index. A parked waiter has a wait
// key: for wTurn, the turn itself, shifted by
// minLat onto the receivers' scale; for wRecv, the head's delivery key, or
// the death fence (shifted likewise, and losing every tie: the reap needs
// low3[0].b strictly past it) if that comes first. A receiver with a head
// also hangs on the waiter list of the head's source: the gate skips that
// source, so against low3[0] = that source its threshold comes from low3[1]
// and the key says nothing. Anyone else has no key and is on no list.
func (n *Network) indexWaiterLocked(e *Endpoint) {
	key := noWait
	var src *Endpoint
	switch e.waiting {
	case wTurn:
		key = waitKey{e.at.Add(n.minLat), e.id}
	case wRecv:
		if e.doomVT < infTime {
			key = waitKey{e.doomVT.Add(n.minLat), math.MaxInt}
		}
		if len(e.q) > 0 {
			m := e.q[0]
			if k := (waitKey{m.ArriveVT, m.Src}); k.less(key) {
				key = k
			}
			src, _ = n.lookupLocked(m.Src)
		}
	}
	n.waitSetLocked(e.pos, key)
	if src == e.headSrc {
		return
	}
	if s := e.headSrc; s != nil {
		if e.srcPrev != nil {
			e.srcPrev.srcNext = e.srcNext
		} else {
			s.srcWaiters = e.srcNext
		}
		if e.srcNext != nil {
			e.srcNext.srcPrev = e.srcPrev
		}
		e.srcPrev, e.srcNext = nil, nil
	}
	if e.headSrc = src; src != nil {
		if e.srcNext = src.srcWaiters; e.srcNext != nil {
			e.srcNext.srcPrev = e
		}
		src.srcWaiters = e
	}
}

// rebuildIndexLocked numbers the endpoints by epList position and rebuilds
// the trees and waiter lists from scratch. It runs when an endpoint is
// created — O(np), but creation happens a handful of times per run.
func (n *Network) rebuildIndexLocked() {
	leaves := 1
	for leaves < len(n.epList) {
		leaves *= 2
	}
	if leaves != n.leaves {
		n.leaves = leaves
		n.capT = make([]vtime.Time, 2*leaves)
		n.bfT = make([]vtime.Time, 2*leaves)
		n.waitT = make([]waitKey, 2*leaves)
		n.aside = make([]subtree, 0, 3*bits.Len(uint(leaves)))
	}
	for i := range n.capT {
		n.capT[i], n.bfT[i], n.waitT[i] = infTime, infTime, noWait
	}
	for p, e := range n.epList {
		e.pos = p
	}
	for _, e := range n.epList {
		n.reindexLocked(e)
		n.indexWaiterLocked(e)
	}
}

// touchLocked adds e (nil is ignored) to the touched set of the mutation in
// progress: an endpoint whose state, frontier, queue, fence or liveness it
// changed.
func (n *Network) touchLocked(e *Endpoint) {
	if e != nil && !e.touched {
		e.touched = true
		n.touched = append(n.touched, e)
	}
}

// planeChangedLocked ends every delivery-plane mutation, whether one call
// changed one endpoint or a batch of sends and a block changed many: it adds
// es to the touched set, re-keys every touched endpoint, recomputes low3 at
// most once if it may have moved, and serves exactly the parked waiters
// whose condition now holds. A serve changes the served endpoint — a pop, a
// reap — so the endpoints it touches are the next round's touched set, and
// the rounds repeat until one serves nobody. Every other endpoint's keys are
// untouched. A mutation that touched nothing is not one.
//
// Staleness is judged once per round, against the low3 before it: the
// argument of low3StaleLocked holds for any set of touched endpoints, since
// m1 can only move if a touched endpoint was in low3 or now sorts into it.
//
// Who can newly pass: a waiter's condition reads only its own state and
// low3. Own state changed only for the touched endpoints, which are checked
// directly. If low3 changed, a waiter passing under the new triple is one of
//
//   - the (at most three) endpoints named in it, whose own entries the
//     checks skip;
//   - a receiver whose head comes from low3[0]'s source: the gate skips
//     that entry too, so it hangs on that source's waiter list;
//   - anyone else, for whom every check compares against low3[0] alone and
//     passes exactly when (low3[0].b+minLat, low3[0].id) exceeds the
//     waiter's key — the wait tree enumerates those.
//
// Every parked waiter failed before the round (or it would have been served
// then), so all that pass now are new. Serving one within a round does not
// change who else passes: a condition reads its own endpoint and low3, and
// low3 is not recomputed until the next round.
//
// The wake index serves only the untouched waiters, so a touched endpoint's
// entry is refreshed after the round, not before: a receive served in the
// round that entered it never enters the index at all. Until then a stale
// entry can only make the round check it once more, directly.
func (n *Network) planeChangedLocked(es ...*Endpoint) {
	for _, e := range es {
		n.touchLocked(e)
	}
	if len(n.touched) == 0 {
		return
	}
	n.ctr.Mutations++
	for len(n.touched) > 0 {
		wave := n.touched
		n.touched, n.wave = n.wave[:0], wave
		for _, e := range wave {
			e.touched = false
			n.reindexLocked(e)
		}
		moved := false
		for _, e := range wave {
			if n.low3StaleLocked(e) {
				was := n.low3
				n.low3Locked(&n.low3, &n.low3ep)
				moved = n.low3 != was
				break
			}
		}
		if n.waveHook != nil {
			n.waveHook()
		}
		if moved {
			n.ctr.Low3Changes++
			n.wakeByLow3Locked()
		}
		for _, e := range wave {
			n.wakeIfReadyLocked(e)
		}
		for _, e := range wave {
			n.indexWaiterLocked(e)
		}
		clear(wave)
	}
}

// wakeByLow3Locked serves every waiter that passes under a changed low3.
func (n *Network) wakeByLow3Locked() {
	for _, e := range n.low3ep {
		n.wakeIfReadyLocked(e)
	}
	thr := noWait // every waiter
	if r := n.low3[0]; r.b < infTime {
		thr = waitKey{r.b.Add(n.minLat), r.id}
		for w := n.low3ep[0].srcWaiters; w != nil; {
			next := w.srcNext // serving w unlinks it
			n.wakeIfReadyLocked(w)
			w = next
		}
	}
	for p := n.waitNextLocked(0, thr); p >= 0; p = n.waitNextLocked(p+1, thr) {
		n.wakeIfReadyLocked(n.epList[p])
	}
}

// wakeIfReadyLocked serves e if it is parked and its condition holds: the
// step its owner would take next runs here, with the clock and take it
// parked with, and its result is handed off.
func (n *Network) wakeIfReadyLocked(e *Endpoint) {
	if e == nil || e.waiting == wNone {
		return
	}
	n.ctr.Visited++
	var done bool
	if e.waiting == wRecv {
		done = e.recvStepLocked()
	} else {
		done, e.err = n.turnStepLocked(e, e.at)
	}
	if done {
		if e.parked {
			n.ctr.Served++
		}
		n.handOffLocked(e)
	}
}

// handOffLocked ends e's wait with the result in e.got and e.err: e leaves
// the wake index and is named to the Driver. Nothing here touches e's
// request after Ready: its owner may make the next at once.
func (n *Network) handOffLocked(e *Endpoint) {
	e.waiting, e.parked, e.take = wNone, false, nil
	n.indexWaiterLocked(e)
	n.drv.Ready(e)
}

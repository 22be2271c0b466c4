// Package transport implements the reliable FIFO message substrate the
// HydEE protocol stack runs on — with a deterministic virtual-time delivery
// plane.
//
// The system model of the paper (§II-A) assumes a set of processes connected
// by reliable FIFO channels with no synchrony assumption, and fail-stop
// process failures. Here every simulated process owns an Endpoint with an
// unbounded mailbox; Network.Send enqueues a message into the destination
// mailbox immediately (asynchronous, eager buffering — sends never block)
// and stamps it with a virtual arrival time computed by the network cost
// model.
//
// # Deterministic delivery
//
// An endpoint's mailbox is a priority queue ordered by the total delivery
// key (ArriveVT, Src, channel sequence). Per-(src,dst) FIFO is preserved by
// clamping each message's arrival time to be no earlier than its channel
// predecessor's (a FIFO channel admits no overtaking), which makes arrival
// times monotone per channel and the key order FIFO-consistent.
//
// Recv does not hand out the earliest queued message immediately: it gates
// delivery until no in-flight sender can still produce an earlier key. The
// network tracks a conservative action bound per source — a lower bound on
// the virtual time of the source's next send or checkpoint write — and a
// message is deliverable only once every other live source's earliest
// possible arrival (its bound plus the minimum latency) sorts after the
// message's key. Bounds advance when sources send (to their SendVT), when
// they block in Recv (a blocked source can only send after it delivers
// something itself, so its bound rises transitively), and when the
// supervisor attaches, quiesces, kills or restarts them (Publish, Quiesce,
// Kill, RestartAt). The chosen message is therefore a pure function of
// virtual time, independent of the order the plane's callers run in: gating
// can delay a delivery in real time, never reorder it.
//
// Because any source can send to any destination, the transitive bound has
// a closed form: with m1 the smallest "self cap" over all sources (a
// running source's frontier; a blocked source's max(frontier, queue head)),
// every blocked source's bound is min(cap, max(frontier, m1+minLat)) — for
// the cap-minimal source that is exactly its cap.
//
// # Incremental bounds and change-driven wakeups
//
// Nothing stores a bound. Each endpoint's cap and blocked frontier sit in
// flat-array tournament trees indexed by endpoint position (= id order), a
// mutation re-keys only the endpoints it touched, and m1 plus the three
// lexicographically smallest (bound, id) pairs — low3, all any gate reads —
// come from O(log sources) descents, skipped entirely when no touched
// endpoint is in or sorts into low3. Wakeups are driven by change: a parked
// waiter's condition reads only its own state and low3, so a mutation
// gate-checks the endpoints it touched and, only if low3 moved, the waiters
// that can pass under the new triple — those it names, those whose queue
// head comes from low3[0]'s source (a per-source list) and those a third
// tree finds with a wait key below low3[0]'s threshold. Each park is
// evaluated once per relevant change, not once per mutation — no broadcast
// herds, and no hand-made wake-up edges to get wrong.
//
// Serve rule: whoever mutates the plane finishes the waits its mutation
// unblocks. A parked wait — receive or turn — whose condition holds is
// served inside the mutation: a receive runs its step with the clock and
// take it parked with (pops under the take rule, or is reaped, or gets
// ErrKilled), a turn is granted or refused, and the endpoint is named to
// the network's Driver (Ready), whose Park hands the result to the waiter.
// The mutation settles the wait exactly as the owner would have: a
// receive's gate and a turn's condition are both stable (bounds only rise
// past a passed gate or a granted turn; rewinds are covered by the latent
// recovery source). A serve changes the served endpoint, so
// planeChangedLocked repeats its round until one serves nobody.
//
// # One mutation per batch
//
// A mutation may be a batch: planeChangedLocked takes every endpoint a call
// touched, re-keys them all, judges low3's staleness once against the
// triple before the batch, recomputes it at most once and runs one wake
// pass per serve round, and Counters count the batch as one mutation.
// Send is the batch of one. Enter is the batch of waits: every filed
// request's sends are enqueued and every requester committed to its wait,
// receives and turns mixed, before one serve pass. The runtime's driver
// files the waits of every rank it has run and enters them all at once;
// the default Driver enters each wait alone.
//
// Outbox rule: a source may buffer its sends and hand them over with its
// next wait — receive or turn —, inside the Enter batch that commits it to
// that wait, or with SendBatch before it reports anything to whoever
// supervises it. Its frontier need move only with those calls: a source
// whose clock advanced since (local compute, checkpoint I/O) holds the gate
// at its last frontier until its next wait, which holds deliveries back
// but never reorders them. No buffered send can be
// undercut by what the plane admits meanwhile, however many other
// mutations come first: its SendVT is at or above the sender's published
// frontier, so it arrives no earlier than that frontier plus the
// lookahead, behind the sender's id on ties — exactly the keys the gate
// already holds back for a running source. Its channel clamp and sequence
// number depend only on the sender's own earlier sends.
//
// Take rule: a receive hands each popped message to its take callback
// (FlushRecv). Deliver returns it to the owner; Keep says the callback
// consumed it and the owner would receive again at once without sending;
// Stop, that it consumed it and the owner's wait is over. Ctl, Marker and
// delivered App messages merge the receiver's clock to the arrival stamp.
// Deliver and Stop leave the receiver running at the merged clock, so its
// bound does not dip below waiters served a moment earlier; Keep re-blocks
// it there, where its owner's next FlushRecv would, and the step pops on
// under the same checks. A kept pop raises only the receiver's own keys,
// so a passed gate stays passed and the kept pops are those its owner's
// loop would make. A consumed message is the callback's from then on (the
// runtime recycles its envelope), so the plane reads nothing of a popped
// message after the callback returns.
//
// Progress requires strictly positive lookahead, so the network enforces a
// minimum virtual latency of 1ns per hop (zero-cost models otherwise admit
// cycles of processes none of which can be proven unable to produce an
// earlier stamp).
//
// Failures: the kill of a failed process is itself an ordered event in
// virtual time. Doom(rank, d) declares the endpoint dead *as of* virtual
// time d without stopping it immediately: operations at or below the fence
// complete exactly as a failure-free execution would have performed them
// (a checkpoint write's turn at vt <= d is still granted; a message
// arriving at vt <= d is still delivered), while the first wait for
// anything past the fence returns ErrKilled. The gate is victim-aware: a
// doomed endpoint blocked on traffic that provably cannot arrive at or
// below its fence — e.g. a scope peer waiting on the already-stopped
// victim — is reaped with ErrKilled instead of pinning its peers'
// transitive bounds forever (the naive pre-kill drain deadlock). Kill then
// finalizes the death: it marks the endpoint dead, wipes its mailbox,
// unblocks any remaining receiver with ErrKilled and bumps the process's
// incarnation number. Traffic already enqueued at other processes is left
// untouched; see Kill for the rationale.
package transport

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"hydee/internal/idtab"
	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

// Kind discriminates the classes of traffic multiplexed on the channels.
type Kind uint8

const (
	// App is an application payload (a Post/Delivery event pair in the
	// terminology of §II-C). Only App messages are counted in the
	// communication matrix and subject to logging.
	App Kind = iota
	// Ctl is protocol control traffic (rollback notifications, recovery
	// process messages, garbage-collection acknowledgments, ...).
	Ctl
	// Marker is an in-band coordinated-checkpoint flush marker; it obeys
	// channel FIFO order with App traffic.
	Marker
)

func (k Kind) String() string {
	switch k {
	case App:
		return "app"
	case Ctl:
		return "ctl"
	case Marker:
		return "marker"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is the wire envelope. Protocol fields (Date, Phase) are piggybacked
// protocol data in the sense of Algorithm 1; WireLen is the modeled
// application payload size used by the network cost model and byte
// accounting, while Data carries the (possibly much smaller) real bytes the
// simulated application computes on.
type Msg struct {
	Src, Dst int
	Kind     Kind
	Tag      int
	// Date is the sender's logical date at the send (Algorithm 1 line 6);
	// it uniquely identifies the message on its channel.
	Date int64
	// Phase is the sender's phase number (Algorithm 1 line 9).
	Phase int
	// Inc is the incarnation of the sending process at send time.
	Inc int32
	// IncSeen is the destination incarnation the sender believed current
	// at send time. A restarted receiver drops application messages with
	// a stale IncSeen: such messages were sent before the sender learned
	// of the rollback and, being inter-cluster, are guaranteed to be in
	// the sender's log and re-sent with the correct ordering.
	IncSeen int32
	// Epoch is the sender's checkpoint sequence number at send time; the
	// coordinated checkpoint uses it to classify in-transit intra-cluster
	// messages as pre- or post-snapshot.
	Epoch int
	// WireLen is the modeled payload size in bytes. If zero it defaults to
	// len(Data) at send time.
	WireLen int
	// PiggyLen is the modeled size of protocol data carried inline as an
	// extra segment of this message (small-message strategy of §V-A).
	PiggyLen int
	// Data is the actual payload.
	Data []byte
	// CtlBody carries a typed protocol control structure for Kind == Ctl.
	CtlBody any
	// SendVT and ArriveVT are the virtual send and earliest-delivery times.
	// ArriveVT is clamped so it is monotone per (src,dst) channel.
	SendVT, ArriveVT vtime.Time

	// chSeq is the message's position on its (src,dst) channel modulo
	// 2^32, the final tiebreak of the delivery key. It is assigned under
	// the delivery-plane lock at enqueue, so it is deterministic per
	// channel (each sender is a single goroutine).
	chSeq uint32
}

// Wire returns the modeled number of bytes this message occupies on the wire.
func (m *Msg) Wire() int { return m.WireLen + m.PiggyLen }

// keyLess orders messages by the total delivery key (ArriveVT, Src, chSeq).
// It only ever compares messages queued at one endpoint, so a chSeq
// tiebreak is between two queued messages of one channel, and their
// wrapping difference orders them: every message of the channel sent
// between the two sorts between them, so it is still queued too (the
// queue pops in key order and a kill empties it), and no queue holds 2^31
// messages.
func keyLess(a, b *Msg) bool {
	if a.ArriveVT != b.ArriveVT {
		return a.ArriveVT < b.ArriveVT
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return int32(a.chSeq-b.chSeq) < 0
}

// ErrKilled is returned by receive operations on a killed endpoint.
var ErrKilled = errors.New("transport: process killed")

// infTime is the "can never act again" bound.
const infTime = vtime.Time(math.MaxInt64)

// srcState classifies what a source may still do, for the delivery gate.
type srcState uint8

const (
	// stRunning: an actor is attached and executing; it may send at any
	// virtual time >= its frontier.
	stRunning srcState = iota
	// stBlocked: the actor is blocked in Recv at clock == frontier; it can
	// only send after it delivers a message itself.
	stBlocked
	// stIdle: no actor is attached (service endpoint between recovery
	// rounds, reaped process); it cannot send until reattached.
	stIdle
	// stDead: killed; it cannot send until restarted, and a restart resumes
	// no earlier than the stale frontier.
	stDead
)

// waitKind says what an endpoint's owner is parked on, so a mutation can
// serve exactly the waiters whose condition now holds.
type waitKind uint8

const (
	wNone waitKind = iota
	wRecv
	wTurn
)

// msgHeap is a min-heap of messages by delivery key.
type msgHeap []*Msg

func (h msgHeap) Len() int           { return len(h) }
func (h msgHeap) Less(i, j int) bool { return keyLess(h[i], h[j]) }
func (h msgHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)        { *h = append(*h, x.(*Msg)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return m
}

// Endpoint is the per-process mailbox. All mutable state is guarded by the
// owning Network's delivery-plane lock.
type Endpoint struct {
	id int
	n  *Network

	q msgHeap
	// doomVT is the virtual time this endpoint is declared to die at
	// (infTime = not doomed). A doomed endpoint keeps operating at or
	// below the fence — in-flight work up to the failure's detection time
	// completes deterministically — and gets ErrKilled at its first wait
	// for anything provably past it.
	doomVT vtime.Time

	state    srcState
	frontier vtime.Time

	// A request is what the owner files before it waits: kind, at — the
	// clock its receive blocks with, merged as its take rule says, or the
	// turn it asks for —, take, and out, the sends the plane enqueues
	// first. waiting says what the owner waits for once Enter entered the
	// request (the serve rule), and parked marks a wait that outlasted the
	// mutation entering it (Counters.Parks). got and err are the result the
	// serving mutation leaves. wake is the goroutine Driver's token channel,
	// made at the endpoint's first wait under it.
	kind    waitKind
	at      vtime.Time
	take    func(*Msg) Verdict
	out     []*Msg
	waiting waitKind
	parked  bool
	got     *Msg
	err     error
	wake    chan struct{}

	// pos is the endpoint's position in the network's epList and trees;
	// touched marks it as a member of the touched set of the mutation in
	// progress (planeChangedLocked).
	pos     int
	touched bool
	// srcWaiters heads the list of parked receivers whose queue head this
	// endpoint sent; headSrc, srcPrev and srcNext are this endpoint's own
	// membership of such a list (see indexWaiterLocked).
	srcWaiters, headSrc, srcPrev, srcNext *Endpoint

	// chans holds one record per source that has sent here, by source
	// id; a channel's first send adds one without moving the others.
	// stats holds the App accounting of the channels between application
	// ranks, in first-App-send order, each reached through its channel's
	// stat index: the control and marker sources most records belong to
	// pay nothing for it.
	chans idtab.Table[channel]
	stats []PairStat
}

// channel is the state of the FIFO channel from one source into an
// endpoint, 16 bytes: what the key order's FIFO-consistency needs, the
// last clamped arrival time and the sequence counter (it wraps; see
// keyLess), and stat, one past the index of the channel's App accounting
// in the endpoint's stats (0: none yet).
type channel struct {
	arrive vtime.Time
	seq    uint32
	stat   int32
}

func newEndpoint(n *Network, id int, state srcState) *Endpoint {
	return &Endpoint{
		id:     id,
		n:      n,
		state:  state,
		doomVT: infTime,
	}
}

// ID reports the endpoint's identifier.
func (e *Endpoint) ID() int { return e.id }

// Recv blocks until the earliest message in virtual-time key order is
// deliverable — i.e. no in-flight sender can still produce an earlier stamp
// — and returns it. now is the caller's current virtual clock; while blocked
// the endpoint's send frontier is pinned there, since the caller cannot
// send before it delivers. It returns ErrKilled if the endpoint is (or
// becomes) dead.
func (e *Endpoint) Recv(now vtime.Time) (*Msg, error) { return e.FlushRecv(nil, now, nil) }

// FlushRecv is Recv preceded by the caller's buffered sends (the package
// comment's outbox rule): out is enqueued under the same lock hold, and the
// sends and the block are one plane mutation. A send to an unknown endpoint
// is dropped and its error returned, without receiving.
//
// take, when not nil, says what the caller does with each popped message
// (the take rule); a receive ends at the first Deliver, returning the
// message, or Stop, returning none. It runs under the plane lock, inside
// whichever mutation finds the message deliverable, while the caller
// waits: it writes only state the caller leaves frozen meanwhile and never
// calls into the network. Without take
// every message is delivered, an App message at the clock now.
func (e *Endpoint) FlushRecv(out []*Msg, now vtime.Time, take func(*Msg) Verdict) (*Msg, error) {
	return e.wait(wRecv, out, now, take)
}

// Verdict is what a receive's take callback did with a popped message.
type Verdict uint8

const (
	// Deliver hands the message to the caller.
	Deliver Verdict = iota
	// Keep: the callback consumed it, and the caller would receive again
	// at once without sending.
	Keep
	// Stop: the callback consumed it, and the caller's wait is over.
	Stop
)

// FlushAwaitTurn blocks until no other live source can still act (send or
// issue a checkpoint write) at a virtual time before (vt, e's id), pinning
// e's own frontier at vt meanwhile. The checkpoint runtime brackets
// stable-storage writes with it so shared-bandwidth contention resolves in
// virtual-time order, not real-time race order, and admits failure
// detections the same way. A doomed endpoint's turn at or below its death
// fence is still granted — an in-flight checkpoint write issued before the
// failure's detection time completes — while a turn past the fence returns
// ErrKilled: the write is cancelled deterministically.
//
// out is the caller's buffered sends (the package comment's outbox rule):
// they and the first attempt at the turn are one plane mutation. A send to
// an unknown endpoint is dropped and its error returned, without waiting
// for the turn.
func (e *Endpoint) FlushAwaitTurn(out []*Msg, vt vtime.Time) error {
	_, err := e.wait(wTurn, out, vt, nil)
	return err
}

// wait is every wait's one path into the plane: it files e's request and
// parks it with the network's Driver, which enters it (Enter) and returns
// once the plane has settled it.
func (e *Endpoint) wait(kind waitKind, out []*Msg, at vtime.Time, take func(*Msg) Verdict) (*Msg, error) {
	e.kind, e.out, e.at, e.take = kind, out, at, take
	e.n.drv.Park(e)
	m, err := e.got, e.err
	e.got, e.err = nil, nil
	return m, err
}

// Driver is how the plane's waits wait. A wait files its request on its
// endpoint and calls Park, which must get the request entered — Enter,
// alone or in a batch with other filed requests — and return once the
// plane has named the endpoint to Ready. Ready runs under the plane lock,
// inside the mutation that settled the wait, so it must not call into the
// network. An endpoint has at most one wait outstanding.
type Driver interface {
	Park(e *Endpoint)
	Ready(e *Endpoint)
}

// goroutines is the default Driver, for callers that give every endpoint
// its own goroutine: Park enters the wait alone and blocks on a token that
// Ready sends. The channel has room for the one token an endpoint's one
// outstanding wait can get, so Ready never blocks.
type goroutines struct{}

func (goroutines) Park(e *Endpoint) {
	if e.wake == nil {
		e.wake = make(chan struct{}, 1)
	}
	e.n.Enter([]*Endpoint{e})
	<-e.wake
}

func (goroutines) Ready(e *Endpoint) { e.wake <- struct{}{} }

// SetDriver makes d the Driver of every later wait. Call it before the
// first one.
func (n *Network) SetDriver(d Driver) { n.drv = d }

// Enter enters the requests filed on batch, receives and turns alike, as
// one plane mutation: every requester's sends are enqueued and every
// requester committed to its wait, then the mutation serves whoever can
// pass already — naming each to the Driver — and the rest park until a
// later mutation serves them. batch is cleared.
func (n *Network) Enter(batch []*Endpoint) {
	for _, e := range batch {
		n.stampAll(e.out)
	}
	n.dmu.Lock()
	defer n.dmu.Unlock()
	n.receiveLocked(batch)
}

// receiveLocked is Enter under the lock.
func (n *Network) receiveLocked(batch []*Endpoint) {
	for _, e := range batch {
		e.requestLocked()
	}
	n.planeChangedLocked()
	for _, e := range batch {
		if e.waiting != wNone {
			e.parked = true
			n.ctr.Parks++
		}
	}
	clear(batch)
}

// requestLocked enqueues e's buffered sends and commits e to its wait; a
// failed send hands the error back at once, without waiting. A receiver
// blocks at its clock. Blocking comes BEFORE the gate is evaluated: the
// caller cannot send until the receive returns, and the transitive bounds
// must reflect that — evaluating while still marked running would let the
// receiver's own stale frontier hold the plane's bounds below its head's
// stamp and fail a check its own blocking satisfies. A turn's requester,
// unless dead or asking past its fence, runs with its frontier pinned at
// the turn: it acts at vt once granted.
func (e *Endpoint) requestLocked() {
	n := e.n
	err := n.enqueueAllLocked(e.out)
	e.out = nil
	if err != nil {
		e.got, e.err = nil, err
		n.handOffLocked(e)
		return
	}
	switch {
	case e.state == stDead:
	case e.kind == wRecv:
		e.state = stBlocked
		e.frontier = max(e.frontier, e.at)
	case e.at <= e.doomVT:
		e.state = stRunning
		e.frontier = max(e.frontier, e.at)
	}
	e.waiting = e.kind
	n.touchLocked(e)
}

// recvStepLocked settles e's receive if it can — a delivery, a Stop, a
// reap or ErrKilled, left in e.got and e.err — and reports whether it did.
// A kept pop does not settle it: the step pops on (the take rule). The
// caller ends the mutation.
func (e *Endpoint) recvStepLocked() bool {
	n := e.n
	for {
		switch {
		case e.state == stDead:
			e.err = ErrKilled
			return true
		case len(e.q) > 0 && n.gatePassLocked(e, e.q[0]):
			if n.pastFenceLocked(e, e.q[0]) {
				// The gate proves the next delivery would happen past the
				// death fence; the process is dead by then.
				e.err = e.reapLocked()
				return true
			}
			if e.takeLocked(heap.Pop(&e.q).(*Msg)) {
				return true
			}
		case n.doomReapLocked(e):
			e.err = e.reapLocked()
			return true
		default:
			return false
		}
	}
}

// pastFenceLocked reports whether delivering m to the doomed endpoint e
// would reach past its death fence. The boundary is doomVT plus one
// minimum-latency hop: the messages already on the wire the instant the
// failure was detected — anything the gate could have admitted while the
// stopped victim's stale frontier still constrained the plane — are part
// of the drain, so the outcome never depends on how quickly the
// supervisor's doom declaration raced the delivery.
func (n *Network) pastFenceLocked(e *Endpoint, m *Msg) bool {
	return e.doomVT < infTime && m.ArriveVT > e.doomVT.Add(n.minLat)
}

// reapLocked ends a doomed endpoint's wait: the caller's goroutine will
// unwind with ErrKilled, so the endpoint stops constraining the delivery
// gate (the supervisor finalizes the death with Kill once the goroutine is
// reaped). Without this transition a doomed scope peer blocked on the dead
// victim would pin its peers' transitive bounds forever.
func (e *Endpoint) reapLocked() error {
	if e.state != stDead && e.state != stIdle {
		e.state = stIdle
		e.n.touchLocked(e)
	}
	return ErrKilled
}

// takeLocked applies the take rule (package comment) to a popped message
// and reports whether it settles the receive.
func (e *Endpoint) takeLocked(m *Msg) bool {
	n := e.n
	n.ctr.Delivered++
	n.touchLocked(e)
	// A take that consumes m may recycle it: m is not read after the call.
	kind, arrive := m.Kind, m.ArriveVT
	v := Deliver
	if e.take != nil {
		v = e.take(m)
	}
	if kind != App || (v == Deliver && e.take != nil) {
		e.at = max(e.at, arrive)
	}
	e.frontier = max(e.frontier, e.at)
	switch v {
	case Keep:
		n.ctr.Kept++
		e.state = stBlocked
		return false
	case Stop:
		n.ctr.Kept++
	default:
		e.got = m
	}
	e.state = stRunning
	return true
}

// TryRecv returns the earliest deliverable message without blocking. ok
// reports whether one was available (queued and not gated).
func (e *Endpoint) TryRecv(now vtime.Time) (m *Msg, ok bool, err error) {
	n := e.n
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if e.state == stDead {
		return nil, false, ErrKilled
	}
	if e.frontier < now {
		e.frontier = now
		n.planeChangedLocked(e)
	}
	e.at, e.take = now, nil
	e.recvStepLocked()
	m, err = e.got, e.err
	e.got, e.err = nil, nil
	n.planeChangedLocked()
	return m, m != nil, err
}

// PairStat accumulates traffic accounting for one ordered process pair.
type PairStat struct {
	Msgs       int64
	Bytes      int64 // modeled application payload bytes
	PiggyBytes int64 // modeled inline protocol bytes
}

// Traffic is the App traffic accounting of the channel from application
// rank Src to application rank Dst.
type Traffic struct {
	Src, Dst int
	PairStat
}

// boundRef is one (action bound, source id) pair, ordered lexicographically.
type boundRef struct {
	b  vtime.Time
	id int
}

func (r boundRef) less(s boundRef) bool {
	return r.b < s.b || (r.b == s.b && r.id < s.id)
}

// Network connects the endpoints and applies the cost model. It owns the
// deterministic delivery plane: one lock guards every mailbox and the index
// the per-source bounds derive from; planeChangedLocked ends every mutation,
// re-keying the endpoints it touched and serving exactly the waiters whose
// condition now holds (plane.go).
type Network struct {
	model netmodel.Model
	// minLat is the smallest latency any message can observe (>= 1ns),
	// the lookahead of the conservative delivery gate.
	minLat vtime.Duration

	// dmu is the plane lock. drv is the Driver every wait parks with.
	dmu sync.Mutex
	drv Driver
	// eps holds the application ranks' endpoints, by rank. epList holds
	// every endpoint, service ones included, sorted by id; an endpoint's
	// position in it is its leaf in the trees below.
	eps    []*Endpoint
	epList []*Endpoint
	// capT, bfT and waitT are tournament trees over epList positions (see
	// plane.go), leaves wide: each endpoint's cap, its frontier while
	// blocked, and its key in the wake index.
	leaves    int
	capT, bfT []vtime.Time
	waitT     []waitKey
	aside     []subtree // treeLowest3Locked's scratch
	// low3 holds the three lexicographically smallest finite (bound, id)
	// pairs: any gate's relevant minimum — which excludes at most the
	// receiver and the head's source — is among them. low3ep names their
	// endpoints.
	low3   [3]boundRef
	low3ep [3]*Endpoint
	// touched collects the endpoints the mutation in progress changed, for
	// planeChangedLocked; it is empty between mutations. wave is the set
	// the serve round in progress re-keys, so that what its serves touch
	// collects for the next round.
	touched, wave []*Endpoint
	// waveHook, when set, runs at every serve round with the index re-keyed
	// and low3 current, before anyone is served: the reference model's
	// view of each round.
	waveHook func()
	// latent designates the recovery endpoint as a latent source: while
	// it is idle, its bound is the plane's minimum cap rather than
	// infinity. A failure detected at a victim's clock c spawns recovery
	// stamps at >= c + minLat, and c is always >= the victim's cap at
	// every earlier pop — so the latent bound makes the plane anticipate a
	// potential recovery round and never admit a stamp a future round
	// could undercut. nil when unset (raw transport use).
	latent *Endpoint
	ctr    Counters
	inc    []int32 // incarnation per application rank
	np     int
}

// NewNetwork creates a network with application endpoints 0..np-1, all
// running with a zero send frontier.
func NewNetwork(np int, model netmodel.Model) *Network {
	lat := model.Latency(0)
	if lat < 1 {
		lat = 1
	}
	n := &Network{
		model:  model,
		minLat: lat,
		eps:    make([]*Endpoint, np),
		inc:    make([]int32, np),
		np:     np,
		drv:    goroutines{},
	}
	for i := range n.eps {
		n.eps[i] = newEndpoint(n, i, stRunning)
	}
	n.epList = slices.Clone(n.eps)
	//hydee:allow lockdiscipline(constructor: the network is not shared yet, no lock needed)
	n.rebuildIndexLocked()
	//hydee:allow lockdiscipline(constructor: the network is not shared yet, no lock needed)
	n.low3Locked(&n.low3, &n.low3ep)
	n.ctr = Counters{} // building the index is not plane work
	return n
}

// MinLatency reports the minimum virtual latency of the plane (>= 1ns) —
// the delivery gate's lookahead. The supervisor stamps a failure round's
// recovery traffic one such hop after the detection time, so the attached
// recovery endpoint's bound never holds the drain at the fence itself.
func (n *Network) MinLatency() vtime.Duration { return n.minLat }

// Model exposes the cost model in use.
func (n *Network) Model() netmodel.Model { return n.model }

// Endpoint returns the endpoint with the given id, creating it if it is a
// non-application (service) id such as the recovery process. Service
// endpoints start idle: they buffer arrivals but are known not to send
// until attached with Publish. An application rank's endpoint is fixed at
// construction, so finding it takes no lock.
func (n *Network) Endpoint(id int) *Endpoint {
	if id >= 0 && id < n.np {
		return n.eps[id]
	}
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.endpointLocked(id)
}

func (n *Network) endpointLocked(id int) *Endpoint {
	e, at := n.lookupLocked(id)
	if e == nil {
		// An idle endpoint's bound is infinite, so creating one moves no
		// bound; it only shifts positions, which the rebuild renumbers.
		e = newEndpoint(n, id, stIdle)
		n.epList = slices.Insert(n.epList, at, e)
		n.rebuildIndexLocked()
	}
	return e
}

// lookupLocked returns the endpoint with the given id, or nil and the
// epList position a new one would take. Application ranks are indexed
// directly; the few service endpoints are found by binary search of
// epList.
func (n *Network) lookupLocked(id int) (*Endpoint, int) {
	if id >= 0 && id < n.np {
		return n.eps[id], -1
	}
	at, ok := slices.BinarySearchFunc(n.epList, id, func(e *Endpoint, id int) int { return cmp.Compare(e.id, id) })
	if !ok {
		return nil, at
	}
	return n.epList[at], at
}

// DeclareRecovery registers id as the latent recovery source: even while no
// recovery round is active, the delivery gate assumes a failure could be
// detected at the plane's minimum cap and stamps from id could follow. The
// runtime calls it once at startup for the recovery endpoint, before any
// traffic flows, and keeps the endpoint it returns for the recovery
// rounds' receives and turns.
func (n *Network) DeclareRecovery(id int) *Endpoint {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	was := n.latent
	n.latent = n.endpointLocked(id)
	n.planeChangedLocked(n.latent, was)
	return n.latent
}

// Incs returns a copy of the current incarnation of every application rank.
func (n *Network) Incs() []int32 {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return append([]int32(nil), n.inc...)
}

// IncOf reports the current incarnation of an application rank. Service
// endpoints always report zero.
func (n *Network) IncOf(rank int) int32 {
	if rank < 0 || rank >= n.np {
		return 0
	}
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.inc[rank]
}

// Send stamps and enqueues m. The caller must have set Src, Dst and advanced
// its clock past the send overhead; SendVT is the sender's clock after that.
// WireLen defaults to len(Data). Sending also publishes the sender's
// frontier: its next send cannot predate this one. Send is SendBatch of one
// message.
func (n *Network) Send(m *Msg) error { return n.SendBatch([]*Msg{m}) }

// SendBatch stamps and enqueues every message of out, in order, as one plane
// mutation: a source's buffered sends (the package comment's outbox rule).
// A send to an unknown endpoint is dropped, and the first such error is
// returned once the others are enqueued.
func (n *Network) SendBatch(out []*Msg) error {
	n.stampAll(out)
	n.dmu.Lock()
	defer n.dmu.Unlock()
	err := n.enqueueAllLocked(out)
	n.planeChangedLocked()
	return err
}

// stampAll applies the WireLen default and the cost model's latency to each
// message of out, which its sender still owns: nothing here needs the lock.
func (n *Network) stampAll(out []*Msg) {
	for _, m := range out {
		if m.WireLen == 0 {
			m.WireLen = len(m.Data)
		}
		m.ArriveVT = m.SendVT.Add(max(n.model.Latency(m.Wire()), n.minLat))
	}
}

// enqueueAllLocked enqueues the stamped messages of out, touching their
// sources and destinations, and returns the first error.
func (n *Network) enqueueAllLocked(out []*Msg) error {
	var first error
	for _, m := range out {
		if err := n.enqueueLocked(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// enqueueLocked is the locked half of a send: incarnation, the sender's
// frontier, the channel's clamp, sequence and accounting, and the
// destination's queue. It touches what it changed; the caller ends the
// mutation.
func (n *Network) enqueueLocked(m *Msg) error {
	dst, _ := n.lookupLocked(m.Dst)
	if dst == nil {
		return fmt.Errorf("transport: send to unknown endpoint %d", m.Dst)
	}
	if int(int32(m.Src)) != m.Src {
		return fmt.Errorf("transport: source id %d out of range", m.Src)
	}
	rankSrc := m.Src >= 0 && m.Src < n.np
	if rankSrc {
		m.Inc = n.inc[m.Src]
	}
	// The sender cannot send again before this message's send time; a
	// source that demonstrably sends is live, so an idle one is promoted.
	// A source with no endpoint (yet) is accepted: it constrains nothing.
	src, _ := n.lookupLocked(m.Src)
	if src != nil && src.state != stDead {
		if m.SendVT > src.frontier {
			src.frontier = m.SendVT
		}
		if src.state == stIdle {
			src.state = stRunning
		}
	}
	n.touchLocked(src)

	ch := dst.chans.Get(int32(m.Src))
	if m.Kind == App && rankSrc && m.Dst >= 0 && m.Dst < n.np {
		if ch.stat == 0 {
			dst.stats = append(dst.stats, PairStat{})
			ch.stat = int32(len(dst.stats))
		}
		st := &dst.stats[ch.stat-1]
		st.Msgs++
		st.Bytes += int64(m.WireLen)
		st.PiggyBytes += int64(m.PiggyLen)
	}
	// FIFO channels admit no overtaking: clamp the arrival to the channel
	// predecessor's, making arrival times monotone per (src,dst) and the
	// delivery key order FIFO-consistent. The channel state advances even
	// when the destination is dead: FIFO order is a property of the
	// channel, not of the receiver's liveness, and a restarted receiver
	// continues it — otherwise whether a send landed just before the kill
	// (buffered, then wiped) or just after (dropped) would leave different
	// clamps behind and the restarted incarnation's arrival stamps would
	// depend on that real-time race.
	if m.ArriveVT < ch.arrive {
		m.ArriveVT = ch.arrive
	}
	ch.arrive = m.ArriveVT
	ch.seq++
	m.chSeq = ch.seq
	if dst.state == stDead {
		return nil // dropped; the sender's frontier still advanced
	}
	heap.Push(&dst.q, m)
	n.touchLocked(dst)
	return nil
}

// Publish raises id's send frontier to vt and marks it running, as one
// plane mutation. A raw actor calls it when its clock advances without a
// transport operation; a stale frontier never reorders deliveries, it only
// holds them until the actor's next wait.
func (n *Network) Publish(id int, vt vtime.Time) {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	e := n.endpointLocked(id)
	if e.state != stDead && (e.state != stRunning || vt > e.frontier) {
		e.state = stRunning
		e.frontier = max(e.frontier, vt)
		n.touchLocked(e)
	}
	n.planeChangedLocked()
}

// Quiesce marks id as unable to send until reattached (Publish, AttachAt,
// Restart): its queue keeps buffering, but the delivery gate stops waiting
// on it. The supervisor quiesces the recovery endpoint between rounds and
// process endpoints whose task has ended.
func (n *Network) Quiesce(id int) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead && e.state != stIdle {
		e.state = stIdle
		n.planeChangedLocked(e)
	}
	n.dmu.Unlock()
}

// AwaitTurn is FlushAwaitTurn on id's endpoint with nothing to flush.
func (n *Network) AwaitTurn(id int, vt vtime.Time) error {
	return n.Endpoint(id).FlushAwaitTurn(nil, vt)
}

// turnStepLocked settles the (vt, e.id) turn if it can: done reports a
// grant, or a refusal with ErrKilled, as opposed to a wait.
func (n *Network) turnStepLocked(e *Endpoint, vt vtime.Time) (done bool, err error) {
	switch {
	case e.state == stDead:
		return true, ErrKilled
	case vt > e.doomVT:
		return true, e.reapLocked()
	case n.turnPassLocked(e, vt):
		n.ctr.TurnGrants++
		return true, nil
	}
	return false, nil
}

// doomReapLocked reports whether a doomed endpoint blocked in Recv can be
// reaped: nothing within the fence can still be delivered to it — its
// queue holds no pre-fence message and no other live source's bound still
// admits a send at or below the fence (a source bound above doomVT can
// only produce arrivals past doomVT+minLat, outside the drain). This is
// what makes the gate victim-aware: a scope peer blocked on the
// already-stopped victim is released with ErrKilled the moment the plane
// proves the wait hopeless, instead of deadlocking the pre-kill drain.
func (n *Network) doomReapLocked(e *Endpoint) bool {
	d := e.doomVT
	if d == infTime || e.state == stDead {
		return false
	}
	if len(e.q) > 0 && !n.pastFenceLocked(e, e.q[0]) {
		return false // a pre-fence message is queued; it must be delivered
	}
	for _, r := range n.low3 {
		if r.b == infTime {
			return true
		}
		if r.id == e.id {
			continue
		}
		return r.b > d
	}
	return true
}

// gatePassLocked reports whether m — the minimum-key message queued at dst
// — can be delivered now: no other live source can still produce a message
// that sorts before it. Messages from m's own source are FIFO-clamped
// behind it, and dst itself cannot send while it is receiving. The relevant
// constraint is the lexicographic minimum of (bound, id) over all sources
// except those two, which is among the plane's three smallest.
func (n *Network) gatePassLocked(dst *Endpoint, m *Msg) bool {
	for _, r := range n.low3 {
		if r.b == infTime {
			return true
		}
		if r.id == dst.id || r.id == m.Src {
			continue
		}
		// The source's next message arrives no earlier than r.b + minLat,
		// with source tiebreak r.id.
		a := r.b.Add(n.minLat)
		return a > m.ArriveVT || (a == m.ArriveVT && r.id > m.Src)
	}
	return true
}

// turnPassLocked reports whether e holds the (vt, id) action turn: every
// other live source's bound sorts strictly after it.
func (n *Network) turnPassLocked(e *Endpoint, vt vtime.Time) bool {
	for _, r := range n.low3 {
		if r.b == infTime {
			return true
		}
		if r.id == e.id {
			continue
		}
		return r.b > vt || (r.b == vt && r.id > e.id)
	}
	return true
}

// DebugState renders the delivery plane (states, frontiers, bounds, queue
// heads, and for each blocked endpoint whose head is held back the low3
// entry pinning it) and the plane's work counters, for deadlock diagnostics;
// the runtime includes it in its deadlock errors.
func (n *Network) DebugState() string {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.debugStateLocked()
}

func (n *Network) debugStateLocked() string {
	var b []byte
	names := [...]string{"running", "blocked", "idle", "dead"}
	for _, e := range n.epList {
		head := "-"
		if len(e.q) > 0 {
			m := e.q[0]
			deliverable := n.gatePassLocked(e, m)
			head = fmt.Sprintf("%s src=%d avt=%d deliverable=%v", m.Kind, m.Src, m.ArriveVT, deliverable)
			if !deliverable && e.state == stBlocked {
				r := n.pinLocked(e, m)
				head += fmt.Sprintf(" pinned-by={ep %d bound=%d}", r.id, r.b)
			}
		}
		doom := ""
		if e.doomVT < infTime {
			doom = fmt.Sprintf(" doom=%d", e.doomVT)
		}
		b = fmt.Appendf(b, "  ep %d: %s frontier=%d bound=%d%s qlen=%d head={%s}\n",
			e.id, names[e.state], e.frontier, n.boundLocked(e), doom, len(e.q), head)
	}
	b = fmt.Appendf(b, "  counters: %+v\n", n.ctr)
	return string(b)
}

// pinLocked returns the low3 entry gatePassLocked(dst, m) fails against —
// the source that can still produce a message sorting before m.
func (n *Network) pinLocked(dst *Endpoint, m *Msg) boundRef {
	for _, r := range n.low3 {
		if r.id != dst.id && r.id != m.Src {
			return r
		}
	}
	return boundRef{infTime, -1}
}

// Stats lists the App traffic of every ordered pair of application ranks
// that exchanged at least one App message, sorted by (Src, Dst): one entry
// per channel used, O(edges) rather than np².
func (n *Network) Stats() []Traffic {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.statsLocked()
}

// statsLocked is a counting sort by (src, dst): each source's run starts
// after the smaller sources' entries, and the destinations are visited in
// rank order.
func (n *Network) statsLocked() []Traffic {
	next := make([]int, n.np+1)
	for _, e := range n.eps {
		for i := range e.chans.Len() {
			if src, c := e.chans.At(i); c.stat != 0 {
				next[src+1]++
			}
		}
	}
	for i := 1; i <= n.np; i++ {
		next[i] += next[i-1]
	}
	out := make([]Traffic, next[n.np])
	for _, e := range n.eps {
		for i := range e.chans.Len() {
			if src, c := e.chans.At(i); c.stat != 0 {
				out[next[src]] = Traffic{Src: int(src), Dst: e.id, PairStat: e.stats[c.stat-1]}
				next[src]++
			}
		}
	}
	return out
}

// Doom declares that id dies at virtual time d without stopping it
// immediately: the endpoint keeps taking checkpoint-write turns stamped at
// or below d and keeps delivering messages arriving within one
// minimum-latency hop of d (anything the gate could have admitted while
// the stopped victim's stale frontier still constrained the plane) exactly
// as a failure-free execution would, and its first wait for anything
// provably past that fence returns ErrKilled. The supervisor dooms a
// failure's whole restart scope at the detection time, drains the plane to
// the fence, and only then finalizes with Kill — making the kill phase an
// ordered event in virtual time. An earlier doom wins when called twice;
// Kill, RestartAt and AttachAt clear it. A doomed latent recovery source
// also holds the delivery gate one hop past its fence (boundLocked).
func (n *Network) Doom(id int, d vtime.Time) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead && d < e.doomVT {
		e.doomVT = d
		n.planeChangedLocked(e)
	}
	n.dmu.Unlock()
}

// Kill marks id dead: wipes its mailbox and wakes any blocked receiver with
// ErrKilled. For an application rank it bumps the incarnation and returns
// the one the process will restart with; a service endpoint has no
// incarnation and returns 0 (the runtime kills the recovery endpoint only
// to abort a run), and an id that is no endpoint is left alone. A dead
// source keeps constraining the delivery gate at its stale frontier: it
// can only come back via RestartAt, at or after that point (the runtime
// resumes it from a checkpoint read no earlier than the failure's
// detection time), so the plane never admits a stamp its restart could
// undercut.
//
// Messages the dead incarnation had already enqueued at other processes are
// deliberately left in place: a message sent before the victim's checkpoint
// is not rolled back and must still be delivered, and one sent after it is
// handled by the protocol's orphan machinery exactly as if it had been
// delivered just before the failure.
func (n *Network) Kill(id int) int32 {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	e, _ := n.lookupLocked(id)
	if e == nil {
		return 0
	}
	e.state = stDead
	e.doomVT = infTime
	e.q = nil
	n.planeChangedLocked(e)
	if id < 0 || id >= n.np {
		return 0
	}
	n.inc[id]++
	return n.inc[id]
}

// RestartAt revives the endpoint of rank — the runtime restarts rolled-back
// application ranks with it; any killed endpoint can be revived — with an
// empty mailbox and no fence, running with its send frontier at exactly
// vt, the virtual time the restarted process resumes from. Unlike AttachAt
// it revives a dead endpoint; it touches no incarnation bookkeeping (only
// Kill does). The frontier is allowed to move BACKWARDS here: a
// rolled-back scope member whose pre-kill clock ran ahead of the detection
// time resumes from its checkpoint below its stale frontier, and keeping
// the stale value would advertise a bound its re-executed sends undercut.
// Rewinding is sound because the latent recovery source (DeclareRecovery)
// capped every delivery at the plane's minimum cap plus lookahead, which
// never exceeded the detection time the restart resumes at or after.
// Channel clamps are kept: a restarted receiver's channels continue the
// FIFO order survivors already observed.
func (n *Network) RestartAt(rank int, vt vtime.Time) {
	n.dmu.Lock()
	e, _ := n.lookupLocked(rank)
	e.state = stRunning
	e.doomVT = infTime
	e.frontier = vt
	e.q = nil
	n.planeChangedLocked(e)
	n.dmu.Unlock()
}

// AttachAt marks id running with its send frontier at exactly vt,
// rewinding a stale frontier left by a previous attachment, and clears its
// death fence: a new actor takes the endpoint over, keeping its mailbox.
// The supervisor uses it to attach the recovery endpoint at a round's
// start, which may precede the virtual time the previous round ended at;
// the same latent-source argument as RestartAt makes the rewind sound, and
// a coordinator doomed by a queued failure held the gate for that round
// until this call releases it.
func (n *Network) AttachAt(id int, vt vtime.Time) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead {
		e.state = stRunning
		e.frontier = vt
		e.doomVT = infTime
		n.planeChangedLocked(e)
	}
	n.dmu.Unlock()
}

// Quiescent reports whether the plane is truly stuck: exactly expected
// waits are parked (in a receive or a turn). None of their conditions
// holds — a mutation serves a waiter the moment its condition holds — so a
// true result is a stable property: no parked wait can end until the
// caller mutates the plane. The runtime never asks; tests and the
// benchmark's transport probe use it to wait until their goroutines have
// parked.
func (n *Network) Quiescent(expected int) bool {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	parked := 0
	for _, e := range n.epList {
		if e.waiting != wNone {
			parked++
		}
	}
	return parked == expected
}

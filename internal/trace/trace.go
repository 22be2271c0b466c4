// Package trace records application-level communication events.
//
// HydEE's correctness argument (§IV of the paper) is stated over
// application-level Post/Delivery events partially ordered by Lamport's
// happened-before relation. The Recorder captures exactly those events —
// one Send record per Post, one Deliver record per Delivery — so the test
// suite can check the paper's lemmas offline:
//
//   - Lemma 1: phases are monotone along every happened-before edge;
//   - Lemma 3: an orphan's phase is strictly below every dependent send;
//   - Lemma 4 / send-determinism: the per-process send sequence (receiver,
//     tag, size, payload digest, phase) is identical across executions.
//
// Happened-before is reconstructed offline from program order plus the
// send→deliver matching, which is unique because a message is identified by
// (sender, sender date).
package trace

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Op is the kind of a recorded event.
type Op uint8

const (
	// Send is an application-level Post event.
	Send Op = iota
	// Deliver is an application-level Delivery event.
	Deliver
)

func (o Op) String() string {
	if o == Send {
		return "send"
	}
	return "deliver"
}

// Event is one application-level communication event.
type Event struct {
	Op   Op
	Proc int
	// Peer is the destination (Send) or source (Deliver).
	Peer int
	// Date is the acting process's logical date after the event.
	Date int64
	// MsgDate is the message identifier on its channel: the sender's date.
	// For Send events MsgDate == Date.
	MsgDate int64
	// Phase is the message phase (Send) or the process phase after the
	// delivery (Deliver).
	Phase int
	// MsgPhase is the phase carried by the message.
	MsgPhase int
	Tag      int
	Bytes    int
	// Digest is a 64-bit FNV-1a hash of the payload, used by the
	// send-determinism checks.
	Digest uint64
	// Seq is the event's index in its process's local history.
	Seq int
	// Replay marks events produced during recovery (re-execution or log
	// replay), letting tests reason about the pre/post failure split.
	Replay bool
	// Inc is the process incarnation that produced the event. A rollback
	// discards the previous incarnation's suffix, so program-order
	// invariants hold within an incarnation, not across the boundary.
	Inc int32
}

// PayloadDigest hashes a payload for Event.Digest.
func PayloadDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Recorder collects events from all simulated processes. It is safe for
// concurrent use; each process appends to its own slice.
type Recorder struct {
	mu  sync.Mutex
	per [][]Event
}

// NewRecorder creates a recorder for np processes.
func NewRecorder(np int) *Recorder {
	return &Recorder{per: make([][]Event, np)}
}

// Record appends ev to its process history, assigning Seq.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = len(r.per[ev.Proc])
	r.per[ev.Proc] = append(r.per[ev.Proc], ev)
}

// Events returns a copy of all events grouped by process.
func (r *Recorder) Events() [][]Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]Event, len(r.per))
	for i, evs := range r.per {
		out[i] = append([]Event(nil), evs...)
	}
	return out
}

// SendSeq is the send-determinism fingerprint of one process: the ordered
// sequence of its sends with everything the model says must be invariant.
type SendSeq []SendSig

// SendSig identifies one send for cross-execution comparison.
type SendSig struct {
	Dst    int
	Tag    int
	Bytes  int
	Digest uint64
	Phase  int
	Date   int64
}

// SendSequence extracts the send fingerprint of process p, ignoring
// duplicate re-executions of the same (dst, date) pair: a replayed or
// re-executed send supersedes the rolled-back original, matching the
// definition of the post-recovery execution.
func SendSequence(events [][]Event, p int) SendSeq {
	type key struct {
		dst  int
		date int64
	}
	last := make(map[key]SendSig)
	order := make([]key, 0, len(events[p]))
	for _, ev := range events[p] {
		if ev.Op != Send {
			continue
		}
		k := key{ev.Peer, ev.MsgDate}
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = SendSig{Dst: ev.Peer, Tag: ev.Tag, Bytes: ev.Bytes, Digest: ev.Digest, Phase: ev.Phase, Date: ev.MsgDate}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].date != order[j].date {
			return order[i].date < order[j].date
		}
		return order[i].dst < order[j].dst
	})
	out := make(SendSeq, 0, len(order))
	for _, k := range order {
		out = append(out, last[k])
	}
	return out
}

// EqualSendSeq compares two fingerprints and describes the first difference.
func EqualSendSeq(a, b SendSeq) error {
	if len(a) != len(b) {
		return fmt.Errorf("send sequence length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("send %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// node identifies an event for the happened-before graph.
type node struct {
	proc, seq int
}

// HBGraph is the happened-before DAG over recorded events.
type HBGraph struct {
	events [][]Event
	// sendIndex maps (sender, msg date, dst) to the send event node.
	sendIndex map[sendKey]node
}

type sendKey struct {
	src  int
	date int64
	dst  int
}

// BuildHB constructs the happened-before graph: program order within each
// process plus send→deliver edges. Re-executed duplicates of a send keep the
// latest occurrence, matching the recovered execution.
func BuildHB(events [][]Event) *HBGraph {
	g := &HBGraph{events: events, sendIndex: make(map[sendKey]node)}
	for p, evs := range events {
		for i, ev := range evs {
			if ev.Op == Send {
				g.sendIndex[sendKey{p, ev.MsgDate, ev.Peer}] = node{p, i}
			}
		}
	}
	return g
}

// CheckPhaseMonotone verifies Lemma 1 on every happened-before edge: along
// program order and along each send→deliver edge the phase never decreases.
// It returns the first violation found.
func (g *HBGraph) CheckPhaseMonotone() error {
	for p, evs := range g.events {
		prev := -1
		prevInc := int32(-1)
		for i, ev := range evs {
			if ev.Inc != prevInc {
				// Rollback boundary: the discarded suffix does not
				// happen-before the restored execution.
				prev = -1
				prevInc = ev.Inc
			}
			ph := ev.Phase
			if ph < prev {
				return fmt.Errorf("proc %d event %d (%s): phase %d < previous %d (Lemma 1 program-order violation)", p, i, ev.Op, ph, prev)
			}
			prev = ph
		}
	}
	for p, evs := range g.events {
		for _, ev := range evs {
			if ev.Op != Deliver {
				continue
			}
			sn, ok := g.sendIndex[sendKey{ev.Peer, ev.MsgDate, p}]
			if !ok {
				continue // sender events not recorded (e.g. replay from log)
			}
			se := g.events[sn.proc][sn.seq]
			if se.Phase > ev.MsgPhase {
				return fmt.Errorf("message (%d,%d)->%d: send phase %d > carried phase %d", ev.Peer, ev.MsgDate, p, se.Phase, ev.MsgPhase)
			}
			if ev.Phase < se.Phase {
				return fmt.Errorf("message (%d,%d)->%d: deliver phase %d < send phase %d (Lemma 1 edge violation)", ev.Peer, ev.MsgDate, p, ev.Phase, se.Phase)
			}
		}
	}
	return nil
}

// UnmatchedDelivers returns deliveries with no recorded matching send; in a
// failure-free run there must be none.
func (g *HBGraph) UnmatchedDelivers() []Event {
	var out []Event
	for p, evs := range g.events {
		for _, ev := range evs {
			if ev.Op != Deliver {
				continue
			}
			if _, ok := g.sendIndex[sendKey{ev.Peer, ev.MsgDate, p}]; !ok {
				out = append(out, ev)
			}
		}
	}
	return out
}

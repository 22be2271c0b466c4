// Package core implements HydEE, the paper's contribution: a hybrid
// rollback-recovery protocol for send-deterministic message-passing
// applications that combines coordinated checkpointing inside process
// clusters with sender-based logging of inter-cluster message payloads,
// and provides failure containment without logging any non-deterministic
// event.
//
// The failure-free path is Algorithm 1: every message carries the sender's
// date and phase; an inter-cluster delivery bumps the receiver's phase to
// max(phase, msgPhase+1), an intra-cluster one to max(phase, msgPhase);
// inter-cluster payloads are copied into the sender's memory; the RPP table
// records the date and phase of every inter-cluster delivery. Checkpoints
// save image, RPP, logs, phase and date.
//
// Recovery is Algorithms 2–4, driven by control messages (see msgs.go) and
// a per-round recovery process: restarted processes notify everyone outside
// their cluster, logged messages above the receiver's restored watermark
// are re-sent ordered by phases, re-executed sends of orphan messages are
// suppressed and acknowledged to the recovery process, and no process may
// perform its first post-failure send while an orphan of a strictly lower
// phase is outstanding.
package core

import (
	"hydee/internal/checkpoint"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Options tunes the protocol.
type Options struct {
	// Name overrides the protocol name in reports (default "hydee").
	Name string
	// ExtraPiggyBytes adds per-message protocol data beyond HydEE's
	// date+phase. The full-message-logging baseline of Figure 6 uses it
	// to model determinant piggybacking.
	ExtraPiggyBytes int
	// DisableGC turns off the garbage-collection acknowledgments of
	// §III-E (ablation).
	DisableGC bool
	// LogDrainBPS models the future-work design of §V-C: instead of
	// keeping logged payloads in node memory, they are staged in a memory
	// buffer and drained asynchronously to a local storage device (e.g.
	// an SSD) at this bandwidth. Zero keeps the paper's in-memory design.
	LogDrainBPS float64
	// LogMemBudget is the staging-buffer size in bytes for the drain
	// design; when the backlog exceeds it, the sender stalls until the
	// device catches up. Zero with LogDrainBPS set means an unbounded
	// buffer (drain timing tracked, never stalls).
	LogMemBudget int64
}

// Protocol is the HydEE protocol factory.
type Protocol struct {
	opts Options
}

// New returns HydEE with default options.
func New() *Protocol { return NewWithOptions(Options{}) }

// NewMLog returns the full sender-based message-logging comparator of
// Figure 6: HydEE (to be run over singleton clusters) piggybacking an
// 8-byte determinant id on every message.
func NewMLog() *Protocol { return NewWithOptions(Options{Name: "mlog", ExtraPiggyBytes: 8}) }

// NewWithOptions returns HydEE with the given options.
func NewWithOptions(o Options) *Protocol {
	if o.Name == "" {
		o.Name = "hydee"
	}
	return &Protocol{opts: o}
}

// Name implements rollback.Protocol.
func (pr *Protocol) Name() string { return pr.opts.Name }

// NewEngine implements rollback.Protocol.
func (pr *Protocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	topo := px.Topo()
	return &engine{
		prot:    pr,
		px:      px,
		rank:    rank,
		topo:    topo,
		cluster: topo.ClusterOf[rank],
		phase:   1, // all process phases are initialized to 1 (§III-B)
		rpp:     make(map[int]*rppChannel),
		logs:    newLogStore(),
		rounds:  make(map[int]*roundState),
	}
}

// NewRecovery implements rollback.Protocol.
func (pr *Protocol) NewRecovery(rx rollback.RecoveryContext) rollback.Recovery {
	return &recovery{rx: rx}
}

// RestartScope implements rollback.Protocol: the failed processes' entire
// clusters roll back, nothing else (failure containment).
func (pr *Protocol) RestartScope(topo *rollback.Topology, failed []int) []int {
	return topo.RanksOf(topo.ClustersOf(failed))
}

// Tolerates implements rollback.Protocol.
func (pr *Protocol) Tolerates() bool { return true }

// engine is the per-process HydEE instance. It runs on its process's
// coroutine only.
type engine struct {
	prot    *Protocol
	px      rollback.Proc
	rank    int
	topo    *rollback.Topology
	cluster int

	date  int64
	phase int
	rpp   map[int]*rppChannel
	logs  *logStore

	myInc int32
	incs  incView

	// Garbage collection (§III-E). Acknowledgments carry the watermarks
	// of the previous checkpoint, not the latest one: a failure racing a
	// coordinated checkpoint can force the cluster back to sequence N-1,
	// so only N-1's watermarks are safe to prune by once N completes.
	gcSafeValid    bool
	gcSafeDate     int64
	gcSafeDeliv    map[int]int64
	gcPendingValid bool
	gcPendingDate  int64
	gcPendingDeliv map[int]int64
	gcAcked        map[int]bool

	// Recovery.
	rounds map[int]*roundState
	active *roundState

	// Asynchronous log drain (§V-C future work): virtual time until which
	// the local storage device is busy writing staged log entries.
	drainBusyUntil vtime.Time
}

// CurrentPhase implements rollback.PhaseReporter.
func (e *engine) CurrentPhase() int { return e.phase }

// CurrentDate implements rollback.PhaseReporter.
func (e *engine) CurrentDate() int64 { return e.date }

// CheckpointScope implements rollback.Engine: the process's cluster.
func (e *engine) CheckpointScope() []int { return e.topo.Members[e.cluster] }

func (e *engine) interCluster(peer int) bool { return e.topo.ClusterOf[peer] != e.cluster }

// PreSend implements Algorithm 1 lines 5-9 plus the send gating and orphan
// suppression of Algorithm 2.
func (e *engine) PreSend(m *transport.Msg) (rollback.SendVerdict, error) {
	for {
		rs := e.active
		if rs == nil || !rs.gated {
			break
		}
		// First post-failure send: wait for the recovery process's
		// release and, if this process rolled back, for every channel
		// watermark (Algorithm 2 line 8, Algorithm 3 line 18). The wait
		// also ends when a newer round supersedes this one (a queued
		// failure stopped the round's coordinator at its fence and a
		// merged round took over): the old release will never come, and
		// the predicate re-anchors on the new active round.
		err := e.px.WaitCtl(func() bool {
			return e.active != rs || (rs.released && (!rs.selfRolled || rs.watermarksLeft == 0))
		})
		if err != nil {
			return rollback.SendVerdict{}, err
		}
		if e.active == rs {
			rs.gated = false
			break
		}
	}

	e.date++
	m.Date = e.date
	m.Phase = e.phase
	m.IncSeen = e.incs.of(m.Dst)

	var v rollback.SendVerdict
	inter := e.interCluster(m.Dst)
	if inter {
		// Sender-based payload logging, overlapped with transmission.
		e.logs.add(logEntry{
			Dst: m.Dst, Date: m.Date, Phase: m.Phase,
			Tag: m.Tag, WireLen: m.WireLen, Data: m.Data,
		})
		mx := e.px.Metrics()
		mx.LoggedMsgs++
		mx.LoggedBytes += int64(m.WireLen)
		if e.logs.Bytes > mx.LogPeakBytes {
			mx.LogPeakBytes = e.logs.Bytes
		}
		v.ExtraCPU += e.px.Model().CopyCost(m.WireLen, true)
		if e.prot.opts.LogDrainBPS > 0 {
			v.ExtraCPU += e.drainStall(m.WireLen)
		}
	}
	// Date and phase are piggybacked on every message (§V-A): inline for
	// small payloads, as a separate control message for large ones.
	pb := netmodel.PiggybackBytes + e.prot.opts.ExtraPiggyBytes
	if m.WireLen <= netmodel.InlinePiggybackMax {
		v.PiggyWire = pb
	} else {
		v.ExtraCPU += e.px.Model().SendOverhead(pb)
	}

	// Orphan suppression (Algorithm 2 lines 13-15): the receiver already
	// holds this message; notify the recovery process instead of sending.
	if rs := e.active; rs != nil && rs.selfRolled && inter {
		if m.Date <= rs.orphanDate[m.Dst] {
			e.px.SendCtl(e.px.RecoveryID(), OrphanNotification{Round: rs.round, Phase: m.Phase}, wireOrphanNote)
			v.Suppress = true
		}
	}
	return v, nil
}

// Admit implements rollback.Engine: drop application messages sent before
// the sender learned of this process's restart; they are superseded by the
// sender's log replay.
func (e *engine) Admit(m *transport.Msg) bool { return m.IncSeen >= e.myInc }

// OnDeliver implements Algorithm 1 lines 10-18.
func (e *engine) OnDeliver(m *transport.Msg) {
	src := m.Src
	if e.interCluster(src) {
		if m.Phase+1 > e.phase {
			e.phase = m.Phase + 1
		}
		ch := e.rpp[src]
		if ch == nil {
			ch = newRPPChannel()
			e.rpp[src] = ch
		}
		ch.record(m.Date, m.Phase)
		// Garbage collection: acknowledge the first delivery from each
		// inter-cluster sender after a checkpoint (§III-E).
		if !e.prot.opts.DisableGC && e.gcSafeValid && !e.gcAcked[src] {
			e.gcAcked[src] = true
			e.px.SendCtl(src, GCAck{CkptDate: e.gcSafeDate, DeliveredFromYou: e.gcSafeDeliv[src]}, wireGCAck)
		}
	} else if m.Phase > e.phase {
		e.phase = m.Phase
	}
	e.date++
}

// OnCheckpoint implements Algorithm 1 lines 19-21: the snapshot includes
// RPP, the message log, phase and date (the image and mailbox are captured
// by the runtime). The save encodes the state uncopied: no engine method
// runs until it is staged, and the next checkpoint replaces the GC maps.
func (e *engine) OnCheckpoint(s *checkpoint.Snapshot) {
	// Promote the previous checkpoint's watermarks to "safe": entering
	// this checkpoint implies every cluster member completed the previous
	// one, so the cluster can never restore below it.
	e.gcSafeValid = e.gcPendingValid
	e.gcSafeDate = e.gcPendingDate
	e.gcSafeDeliv = e.gcPendingDeliv

	e.gcPendingValid = true
	e.gcPendingDate = e.date
	e.gcPendingDeliv = make(map[int]int64, len(e.rpp))
	for src, ch := range e.rpp {
		e.gcPendingDeliv[src] = ch.MaxDate
	}
	// A buffered inter-cluster message counts as delivered, also from a
	// sender with no RPP entry yet.
	for _, m := range e.px.Held() {
		if e.interCluster(m.Src) && m.Date > e.gcPendingDeliv[m.Src] {
			e.gcPendingDeliv[m.Src] = m.Date
		}
	}
	if e.gcAcked == nil { // not saved, so reused
		e.gcAcked = make(map[int]bool)
	}
	clear(e.gcAcked)
	s.DeferProtState(e.savedState())
	// The logs are part of the checkpoint volume (Algorithm 1 line 21).
	s.ModelBytes += e.logs.Bytes
}

// savedState is the protocol state a checkpoint saves. It shares the
// engine's maps and log.
func (e *engine) savedState() *engineState {
	return &engineState{
		Date: e.date, Phase: e.phase, RPP: e.rpp, Logs: e.logs,
		GCSafeValid: e.gcSafeValid, GCSafeDate: e.gcSafeDate, GCSafeDeliv: e.gcSafeDeliv,
		GCPendingValid: e.gcPendingValid, GCPendingDate: e.gcPendingDate, GCPendingDeliv: e.gcPendingDeliv,
	}
}

// drainStall models staging n logged bytes for the asynchronous device
// drain of §V-C and returns the time the sender must stall because the
// staging buffer is over budget.
func (e *engine) drainStall(n int) vtime.Duration {
	now := e.px.Clock().Now()
	if e.drainBusyUntil < now {
		e.drainBusyUntil = now
	}
	bps := e.prot.opts.LogDrainBPS
	e.drainBusyUntil = e.drainBusyUntil.Add(vtime.Duration(float64(n) / bps * 1e9))
	budget := e.prot.opts.LogMemBudget
	if budget <= 0 {
		return 0
	}
	backlogBytes := e.drainBusyUntil.Sub(now).Seconds() * bps
	over := backlogBytes - float64(budget)
	if over <= 0 {
		return 0
	}
	return vtime.Duration(over / bps * 1e9)
}

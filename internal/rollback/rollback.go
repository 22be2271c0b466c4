// Package rollback defines the framework shared by the rollback-recovery
// protocols: the process clustering topology, the engine interface each
// protocol implements per process, the recovery-coordinator interface, and
// the per-process metrics the experiments report.
//
// The runtime (internal/mpi) calls the engine at the application-level
// events of §II-C: PreSend at each Post, OnDeliver at each Delivery, plus
// checkpoint/restore hooks and a control-message dispatch. Engines run
// entirely on their process's coroutine, one process of a run at a time;
// they never need internal locking.
package rollback

import (
	"errors"
	"fmt"
	"slices"

	"hydee/internal/checkpoint"
	"hydee/internal/netmodel"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// ErrNotSendDeterministic reports that a protocol observed an execution
// inconsistent with the send-determinism assumption of §II-C: replayed
// sends after a rollback did not match the pre-failure execution, so the
// orphan accounting of the recovery round cannot balance. Protocols wrap
// it so callers can match with errors.Is.
var ErrNotSendDeterministic = errors.New("rollback: application is not send-deterministic")

// Topology is the static process clustering.
type Topology struct {
	NP        int
	ClusterOf []int
	// Members[c] lists the ranks of cluster c in ascending order.
	Members [][]int
}

// NewTopology builds a topology from a cluster assignment.
func NewTopology(assign []int) *Topology {
	np := len(assign)
	k := 0
	for _, c := range assign {
		if c < 0 {
			panic("rollback: negative cluster id")
		}
		if c+1 > k {
			k = c + 1
		}
	}
	t := &Topology{NP: np, ClusterOf: append([]int(nil), assign...), Members: make([][]int, k)}
	for r, c := range assign {
		t.Members[c] = append(t.Members[c], r)
	}
	return t
}

// SingleCluster puts all np ranks in one cluster (coordinated baseline).
func SingleCluster(np int) *Topology {
	assign := make([]int, np)
	return NewTopology(assign)
}

// Singletons puts every rank in its own cluster (message-logging baseline).
func Singletons(np int) *Topology {
	assign := make([]int, np)
	for i := range assign {
		assign[i] = i
	}
	return NewTopology(assign)
}

// K reports the number of clusters.
func (t *Topology) K() int { return len(t.Members) }

// SameCluster reports whether two ranks share a cluster.
func (t *Topology) SameCluster(a, b int) bool { return t.ClusterOf[a] == t.ClusterOf[b] }

// ClusterPlacement is the one checkpoint-placement rule: each rank goes
// to the storage target of its cluster (cluster id modulo targets), so
// the clusters that checkpoint together — and would otherwise burst on
// one shared link — land on distinct targets.
func ClusterPlacement(t *Topology, targets int) func(rank int) int {
	if targets < 1 {
		targets = 1
	}
	return func(rank int) int { return t.ClusterOf[rank] % targets }
}

// ClustersOf maps a set of ranks to the sorted set of their clusters.
func (t *Topology) ClustersOf(ranks []int) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = t.ClusterOf[r]
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// RanksOf returns the union of members of the given clusters, ascending.
func (t *Topology) RanksOf(clusters []int) []int {
	var out []int
	for _, c := range clusters {
		out = append(out, t.Members[c]...)
	}
	slices.Sort(out)
	return out
}

// Validate checks the topology is well formed.
func (t *Topology) Validate() error {
	if t.NP != len(t.ClusterOf) {
		return fmt.Errorf("rollback: topology NP %d != assign len %d", t.NP, len(t.ClusterOf))
	}
	n := 0
	for _, m := range t.Members {
		if len(m) == 0 {
			return fmt.Errorf("rollback: empty cluster")
		}
		n += len(m)
	}
	if n != t.NP {
		return fmt.Errorf("rollback: members cover %d of %d ranks", n, t.NP)
	}
	return nil
}

// Metrics accumulates per-process protocol accounting. Owned by the
// process; the runtime sums it into the run's Result.
type Metrics struct {
	AppSends      int64
	AppBytes      int64 // modeled payload bytes sent
	AppDelivers   int64
	LoggedMsgs    int64
	LoggedBytes   int64 // modeled payload bytes logged (sender-based)
	LogPeakBytes  int64 // peak log occupancy (modeled)
	PiggyBytes    int64 // modeled inline piggyback bytes
	CtlMsgs       int64
	Checkpoints   int64
	CkptBytes     int64 // modeled checkpoint volume written
	Restarts      int64
	ReplayedSends int64 // re-executed sends during recovery
	Suppressed    int64 // orphan sends suppressed (notification instead)
	ResentLogged  int64 // logged messages re-sent to a restarted cluster
	GCReclaimed   int64 // log bytes reclaimed by garbage collection
}

// Add accumulates other into m.
func (m *Metrics) Add(other *Metrics) {
	m.AppSends += other.AppSends
	m.AppBytes += other.AppBytes
	m.AppDelivers += other.AppDelivers
	m.LoggedMsgs += other.LoggedMsgs
	m.LoggedBytes += other.LoggedBytes
	if other.LogPeakBytes > m.LogPeakBytes {
		m.LogPeakBytes = other.LogPeakBytes
	}
	m.PiggyBytes += other.PiggyBytes
	m.CtlMsgs += other.CtlMsgs
	m.Checkpoints += other.Checkpoints
	m.CkptBytes += other.CkptBytes
	m.Restarts += other.Restarts
	m.ReplayedSends += other.ReplayedSends
	m.Suppressed += other.Suppressed
	m.ResentLogged += other.ResentLogged
	m.GCReclaimed += other.GCReclaimed
}

// RoundInfo describes one recovery round.
type RoundInfo struct {
	Round int
	// RolledBack lists the ranks that roll back this round.
	RolledBack []int
	// Incs[i] is the incarnation RolledBack[i] restarts with.
	Incs []int32
	// AllIncs is the current incarnation of every rank after the kills;
	// restored processes need it to stamp valid IncSeen values toward
	// peers that restarted in earlier rounds. One slice per round, which
	// protocols share among all their processes: nobody writes it.
	AllIncs []int32
	// DetectVT is the virtual time the failure was detected.
	DetectVT vtime.Time
}

// Includes reports whether rank rolls back in this round.
func (r *RoundInfo) Includes(rank int) bool {
	for _, x := range r.RolledBack {
		if x == rank {
			return true
		}
	}
	return false
}

// SendVerdict is the engine's decision about one application send.
type SendVerdict struct {
	// Suppress replaces the physical send with an orphan notification
	// (Algorithm 2 lines 13-15): the receiver already holds the message.
	Suppress bool
	// PiggyWire is the modeled protocol-data size carried inline on this
	// message (small-message strategy).
	PiggyWire int
	// ExtraCPU is additional sender CPU (payload logging copy, or the
	// separate control message of the large-message strategy).
	ExtraCPU vtime.Duration
}

// Proc is the view an engine has of its process runtime.
type Proc interface {
	Topo() *Topology
	Clock() *vtime.Clock
	Model() netmodel.Model
	Metrics() *Metrics
	// SendCtl sends a protocol control message; wireBytes models its size.
	SendCtl(dst int, body any, wireBytes int)
	// SendAppRaw re-injects a fully formed application message (log
	// replay): no engine hooks run, the envelope's Date/Phase stand. m is
	// the runtime's from the call on; its Data may stay in the log.
	SendAppRaw(m *transport.Msg)
	// WaitCtl blocks the process, dispatching incoming control traffic to
	// the engine and buffering application traffic, until pred reports
	// true. pred may run inside another process's plane mutation while
	// the process waits, so it only reads. It returns transport.ErrKilled if the process dies
	// meanwhile.
	WaitCtl(pred func() bool) error
	// RecoveryID is the endpoint id of the recovery process.
	RecoveryID() int
	// Held lists the application messages the process holds undelivered
	// (buffered), in the order it buffered them. The slice is the
	// runtime's: read it during the engine call that asked for it, and
	// neither keep nor modify it.
	Held() []*transport.Msg
}

// Engine is the per-process protocol instance.
//
// The message m that PreSend, Admit and OnDeliver are handed is the
// runtime's again once the call returns: it recycles the envelope for a
// later message. An engine may keep m.Data — the payload is never
// rewritten, so a sender-based log can hold it — but not m itself, nor
// read it after the call (DESIGN.md "Envelope ownership").
type Engine interface {
	// PreSend runs at each application-level Post event: the engine
	// assigns m.Date and m.Phase, decides logging/piggybacking, and during
	// recovery may block (send gating) or suppress the send. It returns an
	// error only if the process dies while blocked.
	PreSend(m *transport.Msg) (SendVerdict, error)
	// Admit decides, when an application message reaches the process,
	// whether it may reach the application. It returns false for
	// duplicates that a log replay supersedes (the sender had not yet
	// learned of this process's restart); such messages are dropped. It
	// must not change the engine's state: a receive asks it under the
	// delivery plane's lock, possibly inside another process's mutation
	// while the process waits.
	Admit(m *transport.Msg) bool
	// OnDeliver runs at each application-level Delivery event.
	OnDeliver(m *transport.Msg)
	// OnCtl handles one protocol control message addressed to this rank.
	OnCtl(m *transport.Msg)
	// OnCheckpoint contributes protocol state to the snapshot under
	// construction (Algorithm 1 line 21: RPP, Logs, Phase, Date), on the
	// process's task: it sets s.ProtState, or hands s.DeferProtState a
	// function whose result the save goroutine encodes; both may read or
	// share the engine's state since no engine method of the process runs
	// until the save is staged. s is the runtime's: the engine must not keep s, or anything
	// s points to, past the call.
	OnCheckpoint(s *checkpoint.Snapshot)
	// OnRestore rehydrates protocol state from the snapshot and performs
	// the restart protocol of Algorithm 2 (rollback notifications etc.).
	// It runs on the restarted process's coroutine before the application
	// program resumes.
	OnRestore(s *checkpoint.Snapshot, round *RoundInfo)
	// CheckpointScope lists the ranks that coordinate checkpoints with
	// this process (its cluster for HydEE, everyone for the coordinated
	// baseline, itself only for uncoordinated logging, none for a
	// protocol that takes no checkpoint), in ascending rank order. The
	// runtime calls it at every checkpoint point and only reads the
	// slice, so an engine can build it once and return it every time.
	// Scopes must be symmetric: r is in s's scope iff s is in r's. The
	// runtime counts a wave's markers instead of naming their senders,
	// so a marker from outside the scope would end a wave early.
	CheckpointScope() []int
}

// PhaseReporter is an optional Engine extension exposing the protocol's
// current logical state for tracing.
type PhaseReporter interface {
	CurrentPhase() int
	CurrentDate() int64
}

// RecoveryContext is the plumbing handed to a recovery coordinator.
type RecoveryContext interface {
	Topo() *Topology
	// Recv blocks for the next control message addressed to the recovery
	// process.
	Recv() (*transport.Msg, error)
	// SendCtl sends a control message from the recovery process.
	SendCtl(dst int, body any, wireBytes int)
	// Now is the recovery process's virtual clock (max of observed
	// arrival stamps).
	Now() vtime.Time
}

// RecoveryStats summarizes one recovery round.
type RecoveryStats struct {
	Round      int
	RolledBack int
	Orphans    int
	StartVT    vtime.Time
	EndVT      vtime.Time
	CtlMsgs    int
}

// Recovery is the per-round coordinator (Algorithm 4). Run blocks until the
// round is complete (all orphans replayed, all releases sent).
type Recovery interface {
	Run(round RoundInfo) (RecoveryStats, error)
}

// Protocol builds engines and recovery coordinators.
type Protocol interface {
	Name() string
	NewEngine(rank int, px Proc) Engine
	// NewRecovery returns the coordinator for a failure round, or nil if
	// the protocol needs none.
	NewRecovery(rx RecoveryContext) Recovery
	// RestartScope maps failed ranks to the full set of ranks that must
	// roll back. A protocol that cannot recover from failures (the native
	// baseline) returns no ranks, and any failure then fails the run.
	RestartScope(topo *Topology, failed []int) []int
}

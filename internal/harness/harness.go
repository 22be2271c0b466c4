// Package harness orchestrates the experiments: it wires a kernel, a
// rollback protocol, a clustering, a network model, a checkpoint schedule
// and a failure plan into an mpi run, and aggregates the metrics the
// paper's tables and figures report.
package harness

import (
	"context"
	"fmt"
	"slices"
	"time"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/graph"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/rollback/coord"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Proto selects the rollback-recovery configuration.
type Proto int

// The protocol configurations the experiments compare.
const (
	// ProtoNative is plain MPICH2: no fault tolerance.
	ProtoNative Proto = iota
	// ProtoCoord is globally coordinated checkpointing with global restart.
	ProtoCoord
	// ProtoMLog is full sender-based message logging: HydEE with singleton
	// clusters plus modeled determinant piggybacking — the "Message
	// Logging" comparator of Figure 6.
	ProtoMLog
	// ProtoHydEE is the paper's protocol with a cluster assignment.
	ProtoHydEE
)

func (p Proto) String() string {
	switch p {
	case ProtoNative:
		return "native"
	case ProtoCoord:
		return "coord"
	case ProtoMLog:
		return "mlog"
	case ProtoHydEE:
		return "hydee"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// Protos is every protocol configuration: the table ProtoByName resolves
// names over.
var Protos = []Proto{ProtoNative, ProtoCoord, ProtoMLog, ProtoHydEE}

// ProtoByName resolves a protocol-configuration name ("native", "coord",
// "mlog", "hydee") to its Proto selector.
func ProtoByName(name string) (Proto, error) {
	for _, p := range Protos {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown protocol %q (want native, coord, mlog or hydee)", name)
}

// Spec describes one run.
type Spec struct {
	Kernel apps.Kernel
	Params apps.Params
	Proto  Proto
	// Assign is the cluster assignment (ProtoHydEE only).
	Assign []int
	// Model is the network model; nil uses Myrinet10G.
	Model netmodel.Model
	// CheckpointEvery / Stagger configure the checkpoint schedule.
	CheckpointEvery int
	Stagger         bool
	// Failures is the fail-stop plan.
	Failures []failure.Event
	// NewStore builds the run's checkpoint store — the one way to pick a
	// store; nil means a fresh free (untimed) in-memory store. It sees
	// the resolved topology so placements can follow clusters
	// (rollback.ClusterPlacement), and an error fails the run. Every run
	// must get a fresh store, or sequential runs bleed state.
	NewStore func(topo *rollback.Topology) (checkpoint.Store, error)
	// Recorder optionally records application-level events.
	Recorder *trace.Recorder
	// Watchdog overrides the livelock guard (mpi.Config.Watchdog).
	Watchdog time.Duration
}

// Summary is the aggregated outcome of one run.
type Summary struct {
	App      string
	Proto    string
	NP       int
	Makespan vtime.Time
	Totals   rollback.Metrics
	// LoggedFrac is logged payload bytes / total payload bytes.
	LoggedFrac float64
	// PiggyFrac is inline piggyback bytes / total payload bytes.
	PiggyFrac float64
	Rounds    []rollback.RecoveryStats
	Store     checkpoint.StoreStats
	Digests   []any
	// PairBytes is the np*np row-major matrix (row = sender) of modeled
	// application payload bytes per ordered rank pair, spread from the
	// run's traffic edges (mpi.Result.Traffic).
	PairBytes []int64
}

// topoAndProtocol resolves the Spec into runtime configuration.
func (s *Spec) topoAndProtocol() (*rollback.Topology, rollback.Protocol, error) {
	np := s.Params.NP
	switch s.Proto {
	case ProtoNative:
		return rollback.SingleCluster(np), rollback.Native(), nil
	case ProtoCoord:
		return rollback.SingleCluster(np), coord.New(), nil
	case ProtoMLog:
		return rollback.Singletons(np), core.NewMLog(), nil
	case ProtoHydEE:
		if err := CheckAssign(s.Assign, np); err != nil {
			return nil, nil, fmt.Errorf("harness: hydee: %w", err)
		}
		return rollback.NewTopology(s.Assign), core.New(), nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown proto %d", int(s.Proto))
	}
}

// CheckAssign reports whether assign is a cluster assignment of np
// ranks: one cluster id in [0, np) per rank, with every id below the
// largest in use also in use, since a cluster has at least one member.
func CheckAssign(assign []int, np int) error {
	if len(assign) != np {
		return fmt.Errorf("assign covers %d ranks, np is %d", len(assign), np)
	}
	used := make([]bool, np)
	k := 0
	for r, c := range assign {
		if c < 0 || c >= np {
			return fmt.Errorf("assign gives rank %d cluster id %d outside [0,%d)", r, c, np)
		}
		used[c] = true
		k = max(k, c+1)
	}
	if c := slices.Index(used[:k], false); c >= 0 {
		return fmt.Errorf("assign uses cluster id %d but leaves cluster %d empty", k-1, c)
	}
	return nil
}

// memStore is a Spec.NewStore constructor: one shared in-memory store of
// bps bytes/second write and read bandwidth.
func memStore(bps float64) func(*rollback.Topology) (checkpoint.Store, error) {
	return func(*rollback.Topology) (checkpoint.Store, error) {
		return checkpoint.NewMemStore(bps, bps), nil
	}
}

// shardedStore is a Spec.NewStore constructor: n cluster-placed
// in-memory shards of bps bytes/second each.
func shardedStore(n int, bps float64) func(*rollback.Topology) (checkpoint.Store, error) {
	return func(topo *rollback.Topology) (checkpoint.Store, error) {
		return checkpoint.NewShardedStore(n, bps, bps, rollback.ClusterPlacement(topo, n)), nil
	}
}

// RunCtx executes the spec, honoring ctx cancellation.
func RunCtx(ctx context.Context, s Spec) (*Summary, error) {
	if s.Params.NP <= 0 {
		return nil, fmt.Errorf("harness: NP must be positive")
	}
	if s.Model == nil {
		s.Model = netmodel.Myrinet10G()
	}
	topo, prot, err := s.topoAndProtocol()
	if err != nil {
		return nil, err
	}
	prog, err := s.Kernel.Make(s.Params)
	if err != nil {
		return nil, err
	}
	if s.NewStore == nil {
		s.NewStore = memStore(0)
	}
	store, err := s.NewStore(topo)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", s.Kernel.Name, s.Proto, err)
	}
	res, err := mpi.RunContext(ctx, mpi.Config{
		NP:                s.Params.NP,
		Model:             s.Model,
		Topo:              topo,
		Protocol:          prot,
		Store:             store,
		CheckpointEvery:   s.CheckpointEvery,
		CheckpointStagger: s.Stagger,
		Failures:          s.Failures,
		Recorder:          s.Recorder,
		Watchdog:          s.Watchdog,
	}, prog)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", s.Kernel.Name, s.Proto, err)
	}
	sum := &Summary{
		App:       s.Kernel.Name,
		Proto:     s.Proto.String(),
		NP:        s.Params.NP,
		Makespan:  res.Makespan,
		Totals:    res.Totals,
		Rounds:    res.Rounds,
		Store:     res.StoreStats,
		Digests:   res.Results,
		PairBytes: pairBytes(s.Params.NP, res.Traffic),
	}
	if res.Totals.AppBytes > 0 {
		sum.LoggedFrac = float64(res.Totals.LoggedBytes) / float64(res.Totals.AppBytes)
		sum.PiggyFrac = float64(res.Totals.PiggyBytes) / float64(res.Totals.AppBytes)
	}
	return sum, nil
}

// pairBytes spreads a run's traffic edges over the np*np row-major byte
// matrix Summary.PairBytes keeps.
func pairBytes(np int, traffic []transport.Traffic) []int64 {
	m := make([]int64, np*np)
	for _, t := range traffic {
		m[t.Src*np+t.Dst] = t.Bytes
	}
	return m
}

// SameDigests verifies two runs produced identical per-rank results — the
// recovery-correctness check (send-determinism guarantees the recovered
// execution equals a failure-free one).
func SameDigests(a, b *Summary) error {
	if len(a.Digests) != len(b.Digests) {
		return fmt.Errorf("harness: digest count %d vs %d", len(a.Digests), len(b.Digests))
	}
	for r := range a.Digests {
		if a.Digests[r] != b.Digests[r] {
			return fmt.Errorf("harness: rank %d digest differs: %v vs %v", r, a.Digests[r], b.Digests[r])
		}
	}
	return nil
}

// TraceGraph runs the kernel failure-free under the native protocol and
// returns its communication graph (what the off-line tool of [28] takes as
// input).
func TraceGraph(k apps.Kernel, p apps.Params) (*graph.Graph, *Summary, error) {
	sum, err := RunCtx(context.Background(), Spec{Kernel: k, Params: p, Proto: ProtoNative})
	if err != nil {
		return nil, nil, err
	}
	return graph.FromPairBytes(p.NP, sum.PairBytes), sum, nil
}

// TraceSpec is the failure-free native spec TraceGraph runs; the parallel
// sweeps build batches of it.
func TraceSpec(k apps.Kernel, p apps.Params, model netmodel.Model) Spec {
	return Spec{Kernel: k, Params: p, Proto: ProtoNative, Model: model}
}

// ClusterApp traces the kernel and partitions its communication graph.
func ClusterApp(k apps.Kernel, p apps.Params, opt graph.Options) (graph.Result, error) {
	g, _, err := TraceGraph(k, p)
	if err != nil {
		return graph.Result{}, err
	}
	return graph.Cluster(g, opt), nil
}

// Package hydee is a Go reproduction of "HydEE: Failure Containment
// without Event Logging for Large Scale Send-Deterministic MPI
// Applications" (Guermouche, Ropars, Snir, Cappello — IPDPS 2012).
//
// It bundles a simulated MPI runtime (a coroutine per rank over reliable
// FIFO channels with a virtual-time Myrinet-10G cost model), the HydEE
// hybrid rollback-recovery protocol (coordinated checkpointing inside
// process clusters + sender-based logging of inter-cluster payloads, no
// event logging), two baselines (globally coordinated checkpointing and
// full message logging), the communication-graph clustering tool, the six
// NAS-like send-deterministic kernels of the paper's evaluation, and the
// experiment harness that regenerates Table I and Figures 5–6.
//
// Quick start:
//
//	eng, err := hydee.New(
//	    hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
//	    hydee.WithProtocol(hydee.HydEE()),
//	    hydee.WithModel(hydee.Myrinet10G()),
//	    hydee.WithCheckpointEvery(5),
//	)
//	if err != nil { ... }
//	res, err := eng.Run(ctx, program)
//
// An Engine is reusable across runs, honors context cancellation and
// deadlines, returns typed errors (*RunError wrapping ErrCanceled,
// ErrDeadlock, ErrNotSendDeterministic), and streams lifecycle events to
// an Observer.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package hydee

import (
	"context"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/graph"
	"hydee/internal/harness"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Core runtime types.
type (
	// Config is the resolved runtime configuration Engine.Config returns.
	Config = mpi.Config
	// Program is the per-rank application code.
	Program = mpi.Program
	// Comm is the MPI-like communicator handed to programs.
	Comm = mpi.Comm
	// Result aggregates a run's metrics.
	Result = mpi.Result
	// Status describes a completed receive.
	Status = mpi.Status
	// Request is a nonblocking-operation handle.
	Request = mpi.Request
	// ReduceOp selects a reduction operator.
	ReduceOp = mpi.ReduceOp
)

// Protocol and clustering types.
type (
	// Protocol is a rollback-recovery protocol.
	Protocol = rollback.Protocol
	// Topology is a process clustering.
	Topology = rollback.Topology
	// Metrics is the per-rank protocol accounting.
	Metrics = rollback.Metrics
	// RecoveryStats summarizes one recovery round.
	RecoveryStats = rollback.RecoveryStats
)

// Failure injection types.
type (
	// FailureEvent is one (possibly multi-process) concurrent failure.
	FailureEvent = failure.Event
	// FailureTrigger decides when an event fires.
	FailureTrigger = failure.Trigger
)

// Virtual time types.
type (
	// Time is a virtual-time instant in nanoseconds.
	Time = vtime.Time
	// Duration is a virtual-time span in nanoseconds.
	Duration = vtime.Duration
)

// Receive wildcards and time units, re-exported for programs.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag

	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second

	OpSum = mpi.OpSum
	OpMax = mpi.OpMax
	OpMin = mpi.OpMin
)

// Model is a network cost model.
type Model = netmodel.Model

// Event tracing (application-level Post/Delivery events, §II-C).
type (
	// EventRecorder collects application-level events when set in Config.
	EventRecorder = trace.Recorder
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
)

// Trace event kinds.
const (
	TraceSend    = trace.Send
	TraceDeliver = trace.Deliver
)

// NewEventRecorder creates a recorder for np ranks.
func NewEventRecorder(np int) *EventRecorder { return trace.NewRecorder(np) }

// HydEE returns the paper's protocol: coordinated checkpointing inside
// clusters, sender-based logging of inter-cluster payloads, no event
// logging.
func HydEE() Protocol { return core.New() }

// Native returns the no-fault-tolerance baseline (plain MPI).
func Native() Protocol { return rollback.Native() }

// Coordinated returns the globally coordinated checkpointing baseline
// (global restart after any failure).
func Coordinated() Protocol { return rollback.Coordinated() }

// MessageLogging returns the full sender-based message-logging comparator
// of Figure 6 (use with Singletons clustering).
func MessageLogging() Protocol {
	return core.NewMLog()
}

// NewTopology builds a clustering from a per-rank cluster assignment.
func NewTopology(assign []int) *Topology { return rollback.NewTopology(assign) }

// SingleCluster puts all ranks in one cluster.
func SingleCluster(np int) *Topology { return rollback.SingleCluster(np) }

// Singletons puts every rank in its own cluster.
func Singletons(np int) *Topology { return rollback.Singletons(np) }

// Myrinet10G returns the network model calibrated to the paper's testbed.
func Myrinet10G() netmodel.Model { return netmodel.Myrinet10G() }

// TCPGigE returns a commodity gigabit Ethernet model.
func TCPGigE() netmodel.Model { return netmodel.TCPGigE() }

// IdealNetwork returns a zero-cost model for protocol-logic experiments.
func IdealNetwork() netmodel.Model { return netmodel.Ideal() }

// Float64sToBytes / BytesToFloat64s convert numeric payloads.
func Float64sToBytes(v []float64) []byte { return mpi.Float64sToBytes(v) }

// BytesToFloat64s decodes a little-endian float64 payload.
func BytesToFloat64s(b []byte) ([]float64, error) { return mpi.BytesToFloat64s(b) }

// ---------------------------------------------------------------------------
// Clustering tool.

// CommGraph is a weighted communication graph.
type CommGraph = graph.Graph

// ClusterOptions configures the clustering sweep.
type ClusterOptions = graph.Options

// ClusterResult is the outcome of a clustering sweep.
type ClusterResult = graph.Result

// Traffic is one ordered rank pair's application traffic (message count,
// payload and piggyback bytes); Result.Traffic lists the pairs that
// talked, sorted by (Src, Dst).
type Traffic = transport.Traffic

// NewCommGraph creates an empty communication graph over np ranks.
func NewCommGraph(np int) *CommGraph { return graph.New(np) }

// CommGraphFromPairBytes builds a graph from an np*np row-major byte
// matrix (row = sender) such as ExperimentSummary.PairBytes.
func CommGraphFromPairBytes(np int, pairBytes []int64) *CommGraph {
	return graph.FromPairBytes(np, pairBytes)
}

// Cluster partitions a communication graph, trading logged volume against
// cluster size like the off-line tool the paper uses (§V-B3).
func Cluster(g *CommGraph, opt ClusterOptions) ClusterResult { return graph.Cluster(g, opt) }

// DefaultClusterOptions mirrors the paper tool's trade-off.
func DefaultClusterOptions() ClusterOptions { return graph.DefaultOptions() }

// ---------------------------------------------------------------------------
// Kernels and experiments.

// Kernel is one of the paper's NAS-like benchmarks.
type Kernel = apps.Kernel

// KernelParams scales a kernel run.
type KernelParams = apps.Params

// Kernels lists the six NAS kernels in Table I order.
func Kernels() []Kernel { return apps.Registry() }

// KernelByName returns one kernel ("bt", "cg", "ft", "lu", "mg", "sp").
func KernelByName(name string) (Kernel, error) { return apps.Get(name) }

// Synthetic programs.
var (
	// RingProgram is a token-accumulation ring.
	RingProgram = apps.Ring
	// StencilProgram is a 4-neighbor halo exchange on a 2D torus.
	StencilProgram = apps.Stencil2D
	// MasterWorkerProgram is the non-send-deterministic counterexample.
	MasterWorkerProgram = apps.MasterWorker
	// RandomDAGProgram is a seeded random send-deterministic workload.
	RandomDAGProgram = apps.RandomDAG
)

// Experiment harness re-exports (see internal/harness for details).
type (
	// ExperimentSpec describes one harness run: Kernel, Params, Proto and
	// (for ProtoHydEE) Assign pick the program and protocol; Model,
	// CheckpointEvery/Stagger and Failures are optional; NewStore is the
	// one checkpoint-store hook — func(*Topology) (Store, error), e.g.
	// StoreSpec.New — and nil means a fresh free in-memory store.
	ExperimentSpec = harness.Spec
	// ExperimentSummary is its aggregated outcome.
	ExperimentSummary = harness.Summary
	// ExperimentProto selects the protocol configuration of a spec.
	ExperimentProto = harness.Proto
	// Table1Row / Fig5Row / Fig6Row / E4Row / E5Row are experiment rows.
	Table1Row = harness.Table1Row
	Fig5Row   = harness.Fig5Row
	Fig6Row   = harness.Fig6Row
	E4Row     = harness.E4Row
	E5Row     = harness.E5Row
)

// Experiment protocol selectors.
const (
	ProtoNative = harness.ProtoNative
	ProtoCoord  = harness.ProtoCoord
	ProtoMLog   = harness.ProtoMLog
	ProtoHydEE  = harness.ProtoHydEE
)

// RunExperiment executes one harness spec.
func RunExperiment(s ExperimentSpec) (*ExperimentSummary, error) {
	return harness.RunCtx(context.Background(), s)
}

// RunExperiments executes independent specs through a bounded worker pool
// (parallelism <= 0 uses one worker per CPU) and returns summaries in spec
// order; runs are isolated, so results are identical to the serial path.
func RunExperiments(ctx context.Context, specs []ExperimentSpec, parallelism int) ([]*ExperimentSummary, error) {
	return harness.RunAll(ctx, specs, parallelism)
}

// Table1 regenerates Table I at np ranks over the network model (nil =
// Myrinet10G), tracing the six kernels at the given sweep parallelism
// (<= 0 = one worker per CPU).
func Table1(ctx context.Context, np, traceIters int, model Model, parallelism int) ([]Table1Row, error) {
	return harness.Table1(ctx, np, traceIters, graph.DefaultOptions(), model, parallelism)
}

// Figure5 regenerates Figure 5 over the network model (nil = Myrinet10G,
// nil sizes = the standard sweep, reps <= 0 = 10); its runs go through
// RunExperiments' pool.
func Figure5(ctx context.Context, model Model, sizes []int, reps int) ([]Fig5Row, error) {
	return harness.Figure5(ctx, model, sizes, reps)
}

// Figure6 regenerates Figure 6 at np ranks with the given clusterings
// over the network model (nil = Myrinet10G), with a configurable
// comparator protocol for the middle bar (ProtoMLog reproduces the paper)
// and a sweep parallelism (<= 0 = one worker per CPU).
func Figure6(ctx context.Context, np, iters int, clusterings map[string][]int, model Model, comparator ExperimentProto, parallelism int) ([]Fig6Row, error) {
	return harness.Figure6(ctx, np, iters, clusterings, model, comparator, parallelism)
}

// Clusterings runs the clustering tool for every kernel.
func Clusterings(np, traceIters int) (map[string][]int, []Table1Row, error) {
	return harness.Clusterings(np, traceIters, graph.DefaultOptions())
}

// CheckpointBurst regenerates E5: the kernel checkpoints into one shared
// store of storeBPS bytes/second, all clusters at once under the
// coordinated baseline and HydEE, then staggered under HydEE; shards >= 2
// adds HydEE checkpointing at once into that many cluster-placed shards
// of storeBPS each (nil model = Myrinet10G).
func CheckpointBurst(ctx context.Context, k Kernel, np, iters, ckptEvery int, assign []int, storeBPS float64, shards int, model Model) ([]E5Row, error) {
	return harness.CheckpointBurst(ctx, k, np, iters, ckptEvery, assign, storeBPS, shards, model)
}

// NetPIPEStandardSizes is the Figure 5 size sweep.
func NetPIPEStandardSizes() []int { return harness.StandardSizes() }

// Experiment formatters.
var (
	FormatTable1  = harness.FormatTable1
	FormatFigure5 = harness.FormatFigure5
	FormatFigure6 = harness.FormatFigure6
	FormatE4      = harness.FormatE4
	FormatE5      = harness.FormatE5
)

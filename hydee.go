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
// experiments that regenerate Table I and Figures 5–6.
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
	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/graph"
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

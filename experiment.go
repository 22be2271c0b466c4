package hydee

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"hydee/internal/core"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

// Experiments: an ExperimentSpec wires a kernel, a rollback protocol, a
// clustering, a network model, a checkpoint schedule and a failure plan
// into one Engine run, and an ExperimentSummary aggregates the metrics
// the paper's tables and figures report.

// ExperimentProto selects the rollback-recovery configuration of an
// ExperimentSpec.
type ExperimentProto int

// The protocol configurations the experiments compare.
const (
	// ProtoNative is plain MPICH2: no fault tolerance.
	ProtoNative ExperimentProto = iota
	// ProtoCoord is globally coordinated checkpointing with global restart.
	ProtoCoord
	// ProtoMLog is full sender-based message logging: HydEE with singleton
	// clusters plus modeled determinant piggybacking — the "Message
	// Logging" comparator of Figure 6.
	ProtoMLog
	// ProtoHydEE is the paper's protocol with a cluster assignment.
	ProtoHydEE
)

func (p ExperimentProto) String() string {
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

// experimentProtos is the protocol table ExperimentProtoByName resolves
// over, in listing order.
var experimentProtos = []ExperimentProto{ProtoNative, ProtoCoord, ProtoMLog, ProtoHydEE}

// ExperimentProtoByName resolves a name to the protocol configuration
// of an ExperimentSpec: "native" (no fault tolerance), "coord" (globally
// coordinated checkpointing), "mlog" (full sender-based message logging)
// or "hydee". Letter case is ignored.
func ExperimentProtoByName(name string) (ExperimentProto, error) {
	lower := strings.ToLower(name)
	for _, p := range experimentProtos {
		if p.String() == lower {
			return p, nil
		}
	}
	return 0, fmt.Errorf("hydee: unknown protocol %q (want native, coord, mlog or hydee)", name)
}

// ExperimentProtoNames lists the names ExperimentProtoByName accepts —
// what a sweep's proto and the cmd binaries' -proto flags resolve
// through. The configurations are fixed.
func ExperimentProtoNames() []string {
	names := make([]string, len(experimentProtos))
	for i, p := range experimentProtos {
		names[i] = p.String()
	}
	return names
}

// ExperimentSpec describes one experiment run: Kernel, Params, Proto and
// (for ProtoHydEE) Assign pick the program and protocol; Model,
// CheckpointEvery/Stagger and Failures are optional.
type ExperimentSpec struct {
	Kernel Kernel
	Params KernelParams
	Proto  ExperimentProto
	// Assign is the cluster assignment (ProtoHydEE only).
	Assign []int
	// Model is the network model; nil uses Myrinet10G.
	Model Model
	// CheckpointEvery / Stagger configure the checkpoint schedule.
	CheckpointEvery int
	Stagger         bool
	// Failures is the fail-stop plan.
	Failures []FailureEvent
	// NewStore builds the run's checkpoint store — func(*Topology)
	// (Store, error), e.g. StoreSpec.New; nil gets what an Engine without
	// a store gets, the zero StoreSpec's free in-memory store. It sees
	// the resolved topology so placements can follow clusters
	// (ClusterPlacement), and an error fails the run. Every run must get
	// a fresh store, or sequential runs bleed state.
	NewStore func(topo *Topology) (Store, error)
}

// ExperimentSummary is the aggregated outcome of one experiment run.
type ExperimentSummary struct {
	App      string
	Proto    string
	NP       int
	Makespan Time
	Totals   Metrics
	// LoggedFrac is logged payload bytes / total payload bytes.
	LoggedFrac float64
	// PiggyFrac is inline piggyback bytes / total payload bytes.
	PiggyFrac float64
	Rounds    []RecoveryStats
	Store     StoreStats
	Digests   []any
	// PairBytes is the np*np row-major matrix (row = sender) of modeled
	// application payload bytes per ordered rank pair, spread from the
	// run's traffic edges (Result.Traffic).
	PairBytes []int64
}

// engine resolves the spec into the Engine that runs it: the protocol
// configuration's topology and protocol, the model, the checkpoint
// schedule, the failure plan and the store NewStore builds.
func (s *ExperimentSpec) engine() (*Engine, error) {
	np := s.Params.NP
	var topo *Topology
	var prot Protocol
	switch s.Proto {
	case ProtoNative:
		topo, prot = rollback.SingleCluster(np), rollback.Native()
	case ProtoCoord:
		topo, prot = rollback.SingleCluster(np), rollback.Coordinated()
	case ProtoMLog:
		topo, prot = rollback.Singletons(np), core.NewMLog()
	case ProtoHydEE:
		if err := checkAssign(s.Assign, np); err != nil {
			return nil, err
		}
		topo, prot = rollback.NewTopology(s.Assign), core.New()
	default:
		return nil, fmt.Errorf("unknown proto %d", int(s.Proto))
	}
	model := s.Model
	if model == nil {
		model = netmodel.Myrinet10G()
	}
	opts := []Option{
		WithTopology(topo), WithProtocol(prot), WithModel(model),
		WithCheckpointEvery(s.CheckpointEvery), WithFailureEvents(s.Failures...),
	}
	if s.Stagger {
		opts = append(opts, WithStaggeredCheckpoints())
	}
	if s.NewStore != nil {
		st, err := s.NewStore(topo)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithStore(st))
	}
	return New(opts...)
}

// checkAssign reports whether assign is a cluster assignment of np
// ranks: one cluster id in [0, np) per rank, with every id below the
// largest in use also in use, since a cluster has at least one member.
func checkAssign(assign []int, np int) error {
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

// RunExperiment executes one spec.
func RunExperiment(s ExperimentSpec) (*ExperimentSummary, error) {
	return runExperiment(context.Background(), s)
}

// runExperiment executes the spec on its Engine, honoring ctx
// cancellation.
func runExperiment(ctx context.Context, s ExperimentSpec) (*ExperimentSummary, error) {
	if s.Params.NP <= 0 {
		return nil, fmt.Errorf("hydee: experiment NP must be positive")
	}
	res, err := s.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("hydee: %s/%s: %w", s.Kernel.Name, s.Proto, err)
	}
	np := s.Params.NP
	sum := &ExperimentSummary{
		App:       s.Kernel.Name,
		Proto:     s.Proto.String(),
		NP:        np,
		Makespan:  res.Makespan,
		Totals:    res.Totals,
		Rounds:    res.Rounds,
		Store:     res.StoreStats,
		Digests:   res.Results,
		PairBytes: make([]int64, np*np),
	}
	for _, t := range res.Traffic {
		sum.PairBytes[t.Src*np+t.Dst] = t.Bytes
	}
	if res.Totals.AppBytes > 0 {
		sum.LoggedFrac = float64(res.Totals.LoggedBytes) / float64(res.Totals.AppBytes)
		sum.PiggyFrac = float64(res.Totals.PiggyBytes) / float64(res.Totals.AppBytes)
	}
	return sum, nil
}

// run builds the kernel's program and the spec's Engine and runs one.
func (s *ExperimentSpec) run(ctx context.Context) (*Result, error) {
	prog, err := s.Kernel.Make(s.Params)
	if err != nil {
		return nil, err
	}
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, prog)
}

// sameDigests verifies two runs produced identical per-rank results — the
// recovery-correctness check (send-determinism guarantees the recovered
// execution equals a failure-free one).
func sameDigests(a, b *ExperimentSummary) error {
	if len(a.Digests) != len(b.Digests) {
		return fmt.Errorf("digest count %d vs %d", len(a.Digests), len(b.Digests))
	}
	for r := range a.Digests {
		if a.Digests[r] != b.Digests[r] {
			return fmt.Errorf("rank %d digest differs: %v vs %v", r, a.Digests[r], b.Digests[r])
		}
	}
	return nil
}

// RunExperiments executes independent specs through a bounded worker
// pool (parallelism <= 0 uses one worker per CPU) and returns their
// summaries in spec order. Every run is deterministic and isolated (own
// network, own store), so the results are identical to the serial path
// regardless of parallelism or scheduling.
//
// On the first error (in spec order), the remaining unstarted specs are
// abandoned, in-flight runs are canceled, and that error is returned.
// Cancelling ctx cancels every run.
func RunExperiments(ctx context.Context, specs []ExperimentSpec, parallelism int) ([]*ExperimentSummary, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if parallelism <= 0 {
		// Each run executes on its worker's goroutine, one rank at a
		// time, so one worker per CPU is the sweet spot.
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(specs) {
		parallelism = len(specs)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	sums := make([]*ExperimentSummary, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sum, err := runExperiment(runCtx, specs[i])
				sums[i] = sum
				if err != nil {
					// runExperiment already names the kernel/proto; add
					// only the index.
					errs[i] = fmt.Errorf("hydee: spec %d: %w", i, err)
					cancel() // first failure stops the sweep
				}
			}
		}()
	}
	for i := range specs {
		if runCtx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()

	if err := firstFailure(errs); err != nil {
		return nil, err
	}
	for _, s := range sums {
		if s == nil {
			// The sweep was cut short before this spec was dispatched
			// (only cancellation stops dispatch); fail rather than
			// return a partial sweep. A cancellation that lands after
			// every spec completed deliberately returns the full result.
			return nil, fmt.Errorf("hydee: sweep canceled: %w", context.Cause(ctx))
		}
	}
	return sums, nil
}

// firstFailure picks the error a fanned-out sweep reports: the first real
// failure in order. Runs the sweep itself canceled after that failure
// surface ErrCanceled, so it falls back to the first of those only when
// nothing else failed (a caller-canceled sweep).
func firstFailure(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpi.ErrCanceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

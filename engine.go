package hydee

import (
	"context"
	"fmt"

	"hydee/internal/mpi"
)

// Engine is a reusable, configured runner for message-passing programs. It
// is built once with New and functional options, then drives any number of
// sequential runs; each run gets a fresh network and (unless the
// configuration pins one) a fresh checkpoint store, so runs never bleed
// state into each other.
//
//	eng, err := hydee.New(
//	    hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
//	    hydee.WithProtocol(hydee.HydEE()),
//	    hydee.WithModel(hydee.Myrinet10G()),
//	    hydee.WithCheckpointEvery(5),
//	)
//	res, err := eng.Run(ctx, program)
//
// Run honors ctx: cancellation or deadline expiry unwinds every rank
// and returns a *RunError wrapping ErrCanceled. All run errors
// are *RunError values carrying rank, round and phase; match causes with
// errors.Is against ErrCanceled, ErrDeadlock and ErrNotSendDeterministic.
type Engine struct {
	cfg mpi.Config
	// store builds a fresh per-run store unless WithStore pinned one; the
	// zero spec is the free in-memory store.
	store StoreSpec
}

// Option configures an Engine. Options apply in the order given to New;
// when two options set the same knob, the later one wins.
type Option func(*Engine) error

// New builds an Engine from options and validates the resulting
// configuration. The rank count comes from WithRanks or, if absent, from
// the topology.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.cfg.NP == 0 && e.cfg.Topo != nil {
		e.cfg.NP = e.cfg.Topo.NP
	}
	if err := mpi.Validate(e.cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes program under the engine's configuration. The engine itself
// is not mutated, so it can be reused for further runs; concurrent Run
// calls on one engine are safe as long as shared injected state (observer,
// recorder, explicit store) tolerates them.
func (e *Engine) Run(ctx context.Context, program Program) (*Result, error) {
	cfg := e.cfg
	if cfg.Store == nil {
		st, err := e.store.New(e.cfg.Topo)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	return mpi.RunContext(ctx, cfg, program)
}

// Config returns a copy of the runtime configuration the engine resolved
// from its options (the per-run store default is applied at Run time).
func (e *Engine) Config() Config { return e.cfg }

// WithRanks sets the number of application processes. It is only needed
// when no topology is given: WithTopology implies the rank count.
func WithRanks(np int) Option {
	return func(e *Engine) error {
		if np <= 0 {
			return fmt.Errorf("hydee: WithRanks(%d): rank count must be positive", np)
		}
		e.cfg.NP = np
		return nil
	}
}

// WithTopology sets the process clustering. If no WithRanks option is
// given, the rank count is taken from the topology.
func WithTopology(t *Topology) Option {
	return func(e *Engine) error {
		if t == nil {
			return fmt.Errorf("hydee: WithTopology(nil)")
		}
		e.cfg.Topo = t
		return nil
	}
}

// WithProtocol sets the rollback-recovery protocol (HydEE, Coordinated,
// MessageLogging, Native, or any custom implementation).
func WithProtocol(p Protocol) Option {
	return func(e *Engine) error {
		e.cfg.Protocol = p
		return nil
	}
}

// WithModel sets the network cost model.
func WithModel(m Model) Option {
	return func(e *Engine) error {
		e.cfg.Model = m
		return nil
	}
}

// WithCheckpointEvery fires a coordinated checkpoint every k-th cooperative
// Comm.Checkpoint() call; 0 disables checkpointing, and New refuses k < 0.
func WithCheckpointEvery(k int) Option {
	return func(e *Engine) error {
		e.cfg.CheckpointEvery = k
		return nil
	}
}

// WithStaggeredCheckpoints offsets the checkpoint schedule per cluster to
// avoid stable-storage I/O bursts (experiment E5).
func WithStaggeredCheckpoints() Option {
	return func(e *Engine) error {
		e.cfg.CheckpointStagger = true
		return nil
	}
}

// WithFailureEvents installs the fail-stop failure plan: each event's
// ranks die together when its trigger holds for the first of them. An
// AtVT trigger is an ordered event in virtual time — in-flight deliveries
// and checkpoint writes at or below the detection fence complete, later
// ones are cancelled — so a run with one failure event is
// byte-reproducible wherever it lands, including mid-checkpoint-wave under
// a storage bandwidth model (several events: DESIGN.md "Remaining
// caveat"). Every Run fires the plan afresh; a later WithFailureEvents
// replaces an earlier one.
func WithFailureEvents(events ...FailureEvent) Option {
	return func(e *Engine) error {
		e.cfg.Failures = events
		return nil
	}
}

// WithObserver streams structured lifecycle events (checkpoints, failures,
// recovery rounds, completion) to o. The runtime serializes calls. Use
// NewLogObserver for a human-readable debug stream, MultiObserver to fan
// out.
func WithObserver(o Observer) Option {
	return func(e *Engine) error {
		e.cfg.Observer = o
		return nil
	}
}

// WithRecorder records application-level send/deliver events for the
// determinism property checks.
func WithRecorder(r *EventRecorder) Option {
	return func(e *Engine) error {
		e.cfg.Recorder = r
		return nil
	}
}

// WithStore pins one checkpoint store instance for all of the engine's
// runs — the hook for third-party Store implementations and for tests
// that restart from a pre-populated store. A pinned store is shared
// state: sequential runs see each other's snapshots (sequences restart
// from 1, so same-program reruns overwrite rather than diverge), and
// concurrent Run calls require the store to tolerate them. For isolated
// per-run stores resolved by name, use WithStoreSpec.
func WithStore(st Store) Option {
	return func(e *Engine) error {
		if st == nil {
			return fmt.Errorf("hydee: WithStore(nil)")
		}
		e.cfg.Store = st
		return nil
	}
}

// WithStoreSpec selects the store by spec — a registry name with its
// geometry ("mem", "sharded:4", "ec:4+2", "replica:3", or anything added
// via RegisterStore), a bandwidth and a directory, exactly as the -store
// flags and job submissions spell it — and builds a fresh store from it
// on every Run, so sequential runs never bleed state. The spec is probed
// here, so a spec its store refuses fails New. A multi-target store
// places each cluster of the engine's topology on its own target.
func WithStoreSpec(s StoreSpec) Option {
	return func(e *Engine) error {
		if _, err := s.Probe(); err != nil {
			return err
		}
		e.store = s
		e.cfg.Store = nil
		return nil
	}
}

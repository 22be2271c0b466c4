// Package mpi is the message-passing runtime the HydEE protocol stack runs
// on: an MPI-like communicator (ranks, tags, blocking and nonblocking
// point-to-point, collectives built over point-to-point) bound to one
// coroutine per simulated process, all of a run's driven by one loop on the
// caller's goroutine, with cooperative checkpointing, fail-stop failure
// injection, restart-from-checkpoint, and a per-failure
// recovery-coordinator round, all accounted in virtual time.
package mpi

import (
	"errors"
	"fmt"
	"time"

	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Program is the code of one simulated MPI process. It must propagate
// errors from Comm operations: transport.ErrKilled unwinds the process when
// its cluster is rolled back. Every process of a run is a coroutine of the
// goroutine running it, and only one runs at a time: a process runs until
// a Comm operation waits, then the next one runs. So a Program that blocks
// outside Comm — a channel, a lock, a sleep — stalls its whole run until it
// returns, and one that waits on another process except through Comm
// deadlocks it.
type Program func(c *Comm) error

// Config describes one run.
type Config struct {
	// NP is the number of application processes.
	NP int
	// Model is the network cost model; nil defaults to netmodel.Ideal().
	Model netmodel.Model
	// Topo is the process clustering; nil defaults to a single cluster.
	Topo *rollback.Topology
	// Protocol is the rollback-recovery protocol; nil defaults to the
	// native (no fault tolerance) baseline.
	Protocol rollback.Protocol
	// Store is the stable storage for checkpoints; nil defaults to an
	// in-memory store without a bandwidth model.
	Store checkpoint.Store
	// CheckpointEvery fires a coordinated checkpoint every k-th
	// cooperative Comm.Checkpoint() call; 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointStagger offsets the checkpoint schedule per cluster to
	// avoid I/O bursts (experiment E5).
	CheckpointStagger bool
	// Failures is the fail-stop plan; nil injects none.
	Failures []failure.Event
	// Recorder, when non-nil, records application-level events for the
	// property tests.
	Recorder *trace.Recorder
	// Observer, when non-nil, receives structured lifecycle events
	// (checkpoints, failures, recovery rounds, completion). Use
	// NewLogObserver for a human-readable debug stream.
	Observer Observer
	// Watchdog aborts the run with ErrDeadlock if its ranks keep running
	// without a supervisor event for this real duration (livelock guard;
	// a deadlock is reported at once); 0 defaults to 60s.
	Watchdog time.Duration
}

func (cfg *Config) watchdog() time.Duration {
	if cfg.Watchdog > 0 {
		return cfg.Watchdog
	}
	return 60 * time.Second
}

// Validate reports whether the configuration is runnable without mutating
// it (defaults are applied to a copy).
func Validate(cfg Config) error { return cfg.normalize() }

func (cfg *Config) normalize() error {
	if cfg.NP <= 0 {
		return errors.New("mpi: NP must be positive")
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("mpi: CheckpointEvery must be >= 0, got %d", cfg.CheckpointEvery)
	}
	if cfg.Watchdog < 0 {
		return fmt.Errorf("mpi: Watchdog must be >= 0, got %v", cfg.Watchdog)
	}
	if cfg.Model == nil {
		cfg.Model = netmodel.Ideal()
	}
	if cfg.Topo == nil {
		cfg.Topo = rollback.SingleCluster(cfg.NP)
	}
	if err := cfg.Topo.Validate(); err != nil {
		return err
	}
	if cfg.Topo.NP != cfg.NP {
		return fmt.Errorf("mpi: topology covers %d ranks, config has %d", cfg.Topo.NP, cfg.NP)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = rollback.Native()
	}
	if err := failure.Validate(cfg.Failures, cfg.NP); err != nil {
		return err
	}
	if cfg.Store == nil {
		cfg.Store = checkpoint.NewMemStore(0, 0)
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// Makespan is the largest final virtual clock across processes.
	Makespan vtime.Time
	// PerRank aggregates protocol metrics per rank across incarnations.
	PerRank []rollback.Metrics
	// Totals sums PerRank.
	Totals rollback.Metrics
	// Results holds the per-rank values passed to Comm.SetResult by the
	// final incarnation.
	Results []any
	// Rounds lists the recovery rounds that ran.
	Rounds []rollback.RecoveryStats
	// StoreStats reports stable-storage activity.
	StoreStats checkpoint.StoreStats
	// Traffic lists, sorted by (Src, Dst), every ordered pair of ranks
	// that exchanged application messages, with the message count and the
	// modeled payload and piggyback bytes: O(edges), not np². The
	// clustering tool builds its communication graph from it.
	Traffic []transport.Traffic
	// Plane holds the delivery plane's work counters: host-side numbers
	// about how the run's ranks interleaved, not about what they computed.
	// The run's one driver fixes that interleaving, so they do not depend
	// on the number of cores; they do depend on how the runtime batches
	// and resumes ranks, which no field above does. They are for profiling
	// a run and stay out of JSON and of every byte-reproducible summary.
	Plane transport.Counters `json:"-"`
}

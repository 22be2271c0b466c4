package mpi

import (
	"errors"
	"fmt"
)

// Sentinel errors a run can return. Callers match them with errors.Is; the
// concrete error is always a *RunError carrying the failing rank, round and
// phase.
var (
	// ErrCanceled reports that the run's context was canceled or its
	// deadline expired before the run completed.
	ErrCanceled = errors.New("mpi: run canceled")
	// ErrDeadlock reports that no rank can run and the run is not over — a
	// deadlocked program, or overlapping unsupported failures — or that
	// ranks kept running with no supervisor event for the watchdog's
	// duration (livelock).
	ErrDeadlock = errors.New("mpi: deadlock suspected")
	// ErrCheckpointLost reports that a checkpoint this run completed could
	// not be loaded from the store during a restart. Restarting the
	// rank from its initial state instead would silently diverge from the
	// surviving processes (skewed clock, replayed sends the protocol never
	// accounted for), so the run aborts.
	ErrCheckpointLost = errors.New("mpi: checkpoint lost from store")
)

// Phase names for RunError.Phase.
const (
	// PhaseConfig is configuration validation, before any rank runs.
	PhaseConfig = "config"
	// PhaseProgram is application code executing on a rank.
	PhaseProgram = "program"
	// PhaseSupervise is the run's driver loop (deadlock, watchdog,
	// cancellation, failure bookkeeping).
	PhaseSupervise = "supervise"
	// PhaseRecovery is a protocol recovery round.
	PhaseRecovery = "recovery"
)

// RunError is the typed error a run returns: it locates the failure (rank,
// recovery round, phase) and wraps the underlying cause, which may be one
// of the sentinels above or rollback.ErrNotSendDeterministic.
type RunError struct {
	// Rank is the application rank whose failure surfaced the error, or
	// -1 when no single rank is responsible.
	Rank int
	// Round is the recovery round in flight when the error occurred, or
	// -1 outside recovery.
	Round int
	// Phase is one of the Phase* constants.
	Phase string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	loc := e.Phase
	if e.Rank >= 0 {
		loc = fmt.Sprintf("%s rank %d", loc, e.Rank)
	}
	if e.Round >= 0 {
		loc = fmt.Sprintf("%s round %d", loc, e.Round)
	}
	return fmt.Sprintf("mpi: %s: %v", loc, e.Err)
}

// Unwrap supports errors.Is / errors.As matching on the cause.
func (e *RunError) Unwrap() error { return e.Err }

// runErr builds a *RunError.
func runErr(rank, round int, phase string, err error) *RunError {
	return &RunError{Rank: rank, Round: round, Phase: phase, Err: err}
}

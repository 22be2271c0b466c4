package hydee

import (
	"fmt"

	"hydee/internal/mpi"
	"hydee/internal/rollback"
	"hydee/internal/trace"
)

// Sentinel errors runs can return; match with errors.Is. The concrete
// error is always a *RunError locating the failure.
var (
	// ErrCanceled reports that the run's context was canceled or its
	// deadline expired.
	ErrCanceled = mpi.ErrCanceled
	// ErrDeadlock reports that no rank can run and the run is not over —
	// a deadlocked program. A run that never ends (a livelock) is bounded
	// only by its context.
	ErrDeadlock = mpi.ErrDeadlock
	// ErrNotSendDeterministic reports an execution that violated the
	// send-determinism assumption the protocol relies on.
	ErrNotSendDeterministic = rollback.ErrNotSendDeterministic
	// ErrCheckpointLost reports that a restart could not load a checkpoint
	// the store had announced; the round aborts rather than silently
	// diverging from the surviving processes.
	ErrCheckpointLost = mpi.ErrCheckpointLost
)

// RunError is the typed error a run returns: rank, recovery round and
// phase of the failure, wrapping the underlying cause.
type RunError = mpi.RunError

// RunError phases.
const (
	PhaseConfig    = mpi.PhaseConfig
	PhaseProgram   = mpi.PhaseProgram
	PhaseSupervise = mpi.PhaseSupervise
	PhaseRecovery  = mpi.PhaseRecovery
)

// CheckSendDeterminism compares the per-rank send sequences of two
// recorded executions of the same program (Definition 1, §II-C: every
// execution emits the same messages in the same per-sender order). A
// mismatch returns an error wrapping ErrNotSendDeterministic.
func CheckSendDeterminism(a, b *EventRecorder) error {
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		return fmt.Errorf("hydee: recorders cover %d vs %d ranks: %w", len(ea), len(eb), ErrNotSendDeterministic)
	}
	for p := range ea {
		if err := trace.EqualSendSeq(trace.SendSequence(ea, p), trace.SendSequence(eb, p)); err != nil {
			return fmt.Errorf("hydee: rank %d: %v: %w", p, err, ErrNotSendDeterministic)
		}
	}
	return nil
}

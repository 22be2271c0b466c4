package hydee

import (
	"context"
	"io"

	"hydee/internal/mpi"
)

// Run observation types. A run emits structured lifecycle events — one per
// checkpoint, failure detection, recovery round boundary, rank completion
// and run completion — to the Observer installed with WithObserver.
type (
	// Observer receives lifecycle events; calls are serialized by the
	// runtime but run on the critical path, so keep them fast.
	Observer = mpi.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = mpi.ObserverFunc
	// RunEvent is one structured lifecycle event.
	RunEvent = mpi.Event
	// RunEventKind discriminates lifecycle events.
	RunEventKind = mpi.EventKind
)

// The lifecycle event kinds.
const (
	EvRunStart      = mpi.EvRunStart
	EvCheckpoint    = mpi.EvCheckpoint
	EvFailure       = mpi.EvFailure
	EvRankFinished  = mpi.EvRankFinished
	EvRecoveryStart = mpi.EvRecoveryStart
	EvRecoveryEnd   = mpi.EvRecoveryEnd
	EvRunComplete   = mpi.EvRunComplete
	EvRunAbort      = mpi.EvRunAbort
)

// NewLogObserver renders lifecycle events as a human-readable debug log.
func NewLogObserver(w io.Writer) Observer { return mpi.NewLogObserver(w) }

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer { return mpi.MultiObserver(obs...) }

// ContextWithObserver returns a context carrying o: every run started
// under it — directly or through sweep helpers like Table1 and
// Figure6 — streams its lifecycle events to o in addition to its own
// configured observer. This is how the cmd binaries wire -events
// exporters into whole sweeps. Unlike a run's own observer, o may see
// events of several concurrent runs interleaved, so it must be
// concurrency-safe (the built-in exporters are).
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	return mpi.ContextWithObserver(ctx, o)
}

package mpi

import (
	"fmt"
	"io"
	"sync/atomic"

	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// EventKind discriminates the lifecycle events a run emits.
type EventKind int

// The lifecycle events.
const (
	// EvRunStart fires once, before any process starts.
	EvRunStart EventKind = iota
	// EvCheckpoint fires when a rank completes a coordinated checkpoint.
	EvCheckpoint
	// EvFailure fires when an injected fail-stop event is detected.
	EvFailure
	// EvRankFinished fires when a rank's program returns successfully.
	EvRankFinished
	// EvRecoveryStart fires when a recovery round begins (restart scope
	// computed, victims being killed), and again, under the same round
	// number and with the widened scope, when a failure joins the round
	// before it launches.
	EvRecoveryStart
	// EvRecoveryEnd fires when a recovery round completes.
	EvRecoveryEnd
	// EvRunComplete fires once, after every rank finished and lingering
	// processes were shut down.
	EvRunComplete
	// EvRunAbort fires once instead of EvRunComplete when the run ends
	// in an error (cancellation, deadlock, fatal rank error, failed
	// recovery); Err carries the cause. Every EvRunStart is therefore
	// terminated by exactly one EvRunComplete or EvRunAbort.
	EvRunAbort
)

func (k EventKind) String() string {
	switch k {
	case EvRunStart:
		return "run-start"
	case EvCheckpoint:
		return "checkpoint"
	case EvFailure:
		return "failure"
	case EvRankFinished:
		return "rank-finished"
	case EvRecoveryStart:
		return "recovery-start"
	case EvRecoveryEnd:
		return "recovery-end"
	case EvRunComplete:
		return "run-complete"
	case EvRunAbort:
		return "run-abort"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one structured lifecycle event.
type Event struct {
	Kind EventKind
	// Run identifies the run that emitted the event: unique within the
	// process, assigned in run-start order. A context observer shared by
	// a parallel sweep sees several runs' events interleaved; Run is what
	// lets a sink demultiplex them (e.g. one output file per run).
	Run int64
	// VT is the virtual time the event was observed at.
	VT vtime.Time
	// Rank is the emitting rank (EvCheckpoint, EvRankFinished), -1
	// otherwise.
	Rank int
	// Ranks lists the victims of an EvFailure, the restart scope of an
	// EvRecoveryStart.
	Ranks []int
	// Round is the recovery round in flight when the event was emitted,
	// -1 when none is active.
	Round int
	// Seq is the checkpoint sequence number (EvCheckpoint).
	Seq int
	// Stats carries the round outcome on EvRecoveryEnd.
	Stats *rollback.RecoveryStats
	// Err carries the run's error on EvRunAbort.
	Err error
}

// Observer receives lifecycle events. A run calls OnEvent from the
// goroutine running it, one call at a time and in an order the run alone
// fixes, so an implementation needs no locking of its own, but it must not
// block for long — it runs on the run's critical path.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer {
	return ObserverFunc(func(ev Event) {
		for _, o := range obs {
			if o != nil {
				o.OnEvent(ev)
			}
		}
	})
}

// NewLogObserver renders events as a human-readable debug log, one line
// per lifecycle event.
func NewLogObserver(w io.Writer) Observer {
	return ObserverFunc(func(ev Event) {
		switch ev.Kind {
		case EvRunStart:
			fmt.Fprintf(w, "[runtime] run start\n")
		case EvCheckpoint:
			fmt.Fprintf(w, "[runtime] rank %d checkpoint seq %d at %v\n", ev.Rank, ev.Seq, ev.VT)
		case EvFailure:
			fmt.Fprintf(w, "[runtime] failure of ranks %v detected at %v\n", ev.Ranks, ev.VT)
		case EvRankFinished:
			fmt.Fprintf(w, "[runtime] rank %d finished at %v\n", ev.Rank, ev.VT)
		case EvRecoveryStart:
			fmt.Fprintf(w, "[runtime] recovery round %d: rolling back ranks %v\n", ev.Round, ev.Ranks)
		case EvRecoveryEnd:
			fmt.Fprintf(w, "[runtime] recovery round %d done at %v\n", ev.Round, ev.VT)
		case EvRunComplete:
			fmt.Fprintf(w, "[runtime] run complete at %v\n", ev.VT)
		case EvRunAbort:
			fmt.Fprintf(w, "[runtime] run aborted: %v\n", ev.Err)
		default:
			fmt.Fprintf(w, "[runtime] %s %+v\n", ev.Kind, ev)
		}
	})
}

// observerMux stamps every event with the owning run's id.
type observerMux struct {
	obs   Observer
	runID int64
}

// runIDs hands out process-unique run identifiers in run-start order.
var runIDs atomic.Int64

func (m *observerMux) emit(ev Event) {
	if m == nil || m.obs == nil {
		return
	}
	ev.Run = m.runID
	m.obs.OnEvent(ev)
}

// Package failure describes fail-stop process failures.
//
// The paper assumes a fail-stop failure model with multiple concurrent
// failures (§II-A). A failure plan is a list of Events; each event names
// the process(es) that die together and the condition under which the
// event fires. Conditions are evaluated at the first victim's own
// interaction points with the runtime (sends, receives, checkpoint calls),
// which makes the injection deterministic with respect to virtual time and
// operation counts.
package failure

import (
	"fmt"
	"slices"

	"hydee/internal/vtime"
)

// Trigger describes when an event fires, evaluated against the first listed
// victim's progress. Exactly one field should be set.
type Trigger struct {
	// AtVT fires once the victim's virtual clock reaches this time.
	AtVT vtime.Time
	// AfterSends fires once the victim has posted this many application
	// sends.
	AfterSends int64
	// AfterCheckpoints fires once the victim has completed this many
	// checkpoints.
	AfterCheckpoints int
}

// Event is one (possibly multi-process) concurrent failure.
type Event struct {
	// Ranks lists the processes that fail together. With a clustered
	// protocol, killing one process rolls back its whole cluster; listing
	// ranks from different clusters exercises multiple concurrent cluster
	// failures.
	Ranks []int
	When  Trigger
}

// Validate reports whether every event is well formed for a run of np
// ranks: at least one victim, victims within [0, np), and exactly one
// positive trigger condition. The runtime validates eagerly at
// configuration time — a mistyped rank or an empty trigger would
// otherwise just never fire and silently produce a failure-free run.
func Validate(events []Event, np int) error {
	for i, ev := range events {
		if len(ev.Ranks) == 0 {
			return fmt.Errorf("failure: event %d: no victim ranks", i)
		}
		for _, r := range ev.Ranks {
			if r < 0 || r >= np {
				return fmt.Errorf("failure: event %d: victim rank %d outside [0,%d)", i, r, np)
			}
		}
		if err := ev.When.Validate(); err != nil {
			return fmt.Errorf("failure: event %d: %w", i, err)
		}
	}
	return nil
}

// Validate reports whether exactly one trigger condition is set with a
// positive value.
func (t Trigger) Validate() error {
	set := 0
	if t.AtVT != 0 {
		if t.AtVT < 0 {
			return fmt.Errorf("failure: AtVT must be positive, got %v", t.AtVT)
		}
		set++
	}
	if t.AfterSends != 0 {
		if t.AfterSends < 0 {
			return fmt.Errorf("failure: AfterSends must be positive, got %d", t.AfterSends)
		}
		set++
	}
	if t.AfterCheckpoints != 0 {
		if t.AfterCheckpoints < 0 {
			return fmt.Errorf("failure: AfterCheckpoints must be positive, got %d", t.AfterCheckpoints)
		}
		set++
	}
	if set == 0 {
		return fmt.Errorf("failure: trigger sets no condition (want exactly one of AtVT, AfterSends, AfterCheckpoints)")
	}
	if set > 1 {
		return fmt.Errorf("failure: trigger sets %d conditions (want exactly one of AtVT, AfterSends, AfterCheckpoints)", set)
	}
	return nil
}

// hit reports whether the trigger holds for a victim whose virtual clock
// reads vt, that has posted sends application sends and completed ckpts
// checkpoints. A trigger with no condition set never holds.
func (t Trigger) hit(vt vtime.Time, sends int64, ckpts int) bool {
	switch {
	case t.AtVT > 0:
		return vt >= t.AtVT
	case t.AfterSends > 0:
		return sends >= t.AfterSends
	case t.AfterCheckpoints > 0:
		return ckpts >= t.AfterCheckpoints
	}
	return false
}

// ByFirstVictim files each event under its first victim, in list order,
// for a run of np ranks whose plan Validate accepted: rank r's
// incarnations consume list r with Next. An empty plan yields nil.
func ByFirstVictim(events []Event, np int) [][]Event {
	if len(events) == 0 {
		return nil
	}
	byRank := make([][]Event, np)
	for _, ev := range events {
		byRank[ev.Ranks[0]] = append(byRank[ev.Ranks[0]], ev)
	}
	return byRank
}

// Next removes from *pending the first event whose trigger holds at the
// given progress and returns its victims (first victim included), or nil
// when none holds: each event fires at most once, and events whose
// triggers hold together fire in list order at successive calls.
func Next(pending *[]Event, vt vtime.Time, sends int64, ckpts int) []int {
	for i, ev := range *pending {
		if ev.When.hit(vt, sends, ckpts) {
			*pending = slices.Delete(*pending, i, i+1)
			return slices.Clone(ev.Ranks)
		}
	}
	return nil
}

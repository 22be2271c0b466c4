package hydee

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hydee/internal/vtime"
)

// Flag-level failure-injection specs. The cmd binaries accept failures as
// compact strings ("vt:1.5ms@3", "ckpts:2@8,12") and validate them eagerly
// at startup with a typed *FailureSpecError listing the valid forms —
// mirroring the eager -store validation — instead of silently running
// failure-free on a typo.

// FailureSpecForms documents the accepted -fail-at spec grammar, for flag
// help strings and error messages.
const FailureSpecForms = `"vt:<duration>@<rank[,rank...]>" (fail at a virtual time, e.g. vt:1.5ms@3), ` +
	`"sends:<n>@<rank[,rank...]>" (after n application sends of the first rank), ` +
	`"ckpts:<n>@<rank[,rank...]>" (after n completed checkpoints); ` +
	`join several events with ";"`

// FailureSpecError reports a malformed failure spec, with the offending
// input and the accepted forms.
type FailureSpecError struct {
	Spec   string
	Reason string
}

// Error implements error.
func (e *FailureSpecError) Error() string {
	return fmt.Sprintf("hydee: invalid failure spec %q: %s (valid forms: %s)", e.Spec, e.Reason, FailureSpecForms)
}

func specErr(spec, format string, args ...any) error {
	return &FailureSpecError{Spec: spec, Reason: fmt.Sprintf(format, args...)}
}

// ParseFailureSpec parses a failure-injection flag value into schedule
// events. Each ";"-separated element is one (possibly multi-victim)
// concurrent failure in one of the forms documented by FailureSpecForms.
// The empty string parses to nil events (no injection). Victim-rank range
// checking against the run size happens later, at configuration time.
func ParseFailureSpec(spec string) ([]FailureEvent, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var events []FailureEvent
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, specErr(spec, "empty event")
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, specErr(spec, "event %q has no trigger kind", part)
		}
		val, rankList, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, specErr(spec, "event %q names no victim ranks", part)
		}
		var when FailureTrigger
		switch strings.TrimSpace(kind) {
		case "vt":
			d, err := time.ParseDuration(strings.TrimSpace(val))
			if err != nil || d <= 0 {
				return nil, specErr(spec, "event %q: %q is not a positive duration", part, val)
			}
			when.AtVT = vtime.Time(d.Nanoseconds())
		case "sends":
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil || n <= 0 {
				return nil, specErr(spec, "event %q: %q is not a positive send count", part, val)
			}
			when.AfterSends = n
		case "ckpts":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n <= 0 {
				return nil, specErr(spec, "event %q: %q is not a positive checkpoint count", part, val)
			}
			when.AfterCheckpoints = n
		default:
			return nil, specErr(spec, "event %q: unknown trigger kind %q", part, kind)
		}
		var ranks []int
		for _, rs := range strings.Split(rankList, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(rs))
			if err != nil || r < 0 {
				return nil, specErr(spec, "event %q: %q is not a valid rank", part, rs)
			}
			ranks = append(ranks, r)
		}
		events = append(events, FailureEvent{Ranks: ranks, When: when})
	}
	return events, nil
}

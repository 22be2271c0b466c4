package hydee_test

import (
	"errors"
	"math"
	"testing"

	"hydee"
	"hydee/internal/failure"
)

func TestParseFailureSpec(t *testing.T) {
	events, err := hydee.ParseFailureSpec("vt:1.5ms@3; sends:10@0,7; ckpts:2@8")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].When.AtVT != hydee.Time(1500*1000) {
		t.Errorf("vt trigger = %v, want 1.5ms", events[0].When.AtVT)
	}
	if got := events[1].Ranks; len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Errorf("ranks = %v, want [0 7]", got)
	}
	if events[1].When.AfterSends != 10 || events[2].When.AfterCheckpoints != 2 {
		t.Errorf("triggers = %+v %+v", events[1].When, events[2].When)
	}
	if ev, err := hydee.ParseFailureSpec(""); err != nil || ev != nil {
		t.Errorf("empty spec: %v %v", ev, err)
	}
}

func TestParseFailureSpecTypedErrors(t *testing.T) {
	for _, spec := range []string{
		"vt:1.5ms",    // no ranks
		"later@3",     // no trigger kind
		"vt:-3ms@1",   // negative duration
		"vt:soon@1",   // unparsable duration
		"sends:0@1",   // non-positive count
		"ckpts:two@1", // unparsable count
		"epoch:5@1",   // unknown kind
		"vt:1ms@x",    // bad rank
		"vt:1ms@1;;",  // empty event
		"vt:1ms@-2",   // negative rank
	} {
		_, err := hydee.ParseFailureSpec(spec)
		var se *hydee.FailureSpecError
		if !errors.As(err, &se) {
			t.Errorf("spec %q: got %v, want *FailureSpecError", spec, err)
			continue
		}
		if se.Spec == "" || se.Reason == "" {
			t.Errorf("spec %q: error misses context: %+v", spec, se)
		}
	}
}

// FuzzParseFailureSpec holds the -fail-at grammar to two properties on
// any input: the parser never panics, and every spec it accepts is a plan
// that validates for a run just large enough to hold its highest victim.
func FuzzParseFailureSpec(f *testing.F) {
	for _, seed := range []string{
		"", "vt:1.5ms@3", "sends:10@0,7; ckpts:2@8", "vt:1ms@1;;", "vt:-3ms@1",
		"ckpts:two@1", "epoch:5@1", "vt:1ms@x", "sends:9223372036854775807@0",
		"vt:1ns@9223372036854775807", " vt : 2us @ 4 , 4 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		events, err := hydee.ParseFailureSpec(spec)
		if err != nil {
			var se *hydee.FailureSpecError
			if !errors.As(err, &se) {
				t.Fatalf("spec %q: untyped error %v", spec, err)
			}
			return
		}
		maxRank := -1
		for _, ev := range events {
			for _, r := range ev.Ranks {
				maxRank = max(maxRank, r)
			}
		}
		if maxRank == math.MaxInt {
			// No run has MaxInt+1 ranks: every size must refuse the victim.
			if failure.Validate(events, math.MaxInt) == nil {
				t.Fatalf("spec %q: rank MaxInt validated", spec)
			}
			return
		}
		if err := failure.Validate(events, maxRank+1); err != nil {
			t.Fatalf("spec %q parsed to %+v, which does not validate at np %d: %v", spec, events, maxRank+1, err)
		}
	})
}

// TestValidateFailureEventsRange holds a parsed plan to the run size
// through failure.Validate, the check SweepSpec.Experiment and New make.
func TestValidateFailureEventsRange(t *testing.T) {
	events, err := hydee.ParseFailureSpec("vt:1ms@7")
	if err != nil {
		t.Fatal(err)
	}
	if err := failure.Validate(events, 8); err != nil {
		t.Errorf("rank 7 of 8 rejected: %v", err)
	}
	if err := failure.Validate(events, 4); err == nil {
		t.Error("rank 7 of 4 accepted")
	}
}

// TestWithFailureEventsInjectsAtVirtualTime drives the option end to end
// with an AtVT trigger: the failure fires once the victim's clock passes
// the given virtual time and the cluster recovers.
func TestWithFailureEventsInjectsAtVirtualTime(t *testing.T) {
	eng, err := hydee.New(
		hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.IdealNetwork()),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{3},
			When:  hydee.FailureTrigger{AtVT: hydee.Time(150 * hydee.Microsecond)},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *hydee.Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Compute(100 * hydee.Microsecond); err != nil {
				return err
			}
		}
		c.SetResult(c.Rank())
		return nil
	}
	// The plan fires afresh on every run of the engine.
	for run := 0; run < 2; run++ {
		res, err := eng.Run(t.Context(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rounds) != 1 {
			t.Fatalf("run %d: rounds %d, want 1", run, len(res.Rounds))
		}
		if res.Rounds[0].StartVT < hydee.Time(150*hydee.Microsecond) {
			t.Errorf("run %d: detection VT %v before the scheduled time", run, res.Rounds[0].StartVT)
		}
		if res.Totals.Restarts != 2 {
			t.Errorf("run %d: restarts %d, want the 2 ranks of cluster 1", run, res.Totals.Restarts)
		}
	}
}

func TestWithFailureEventsValidation(t *testing.T) {
	at := hydee.FailureTrigger{AtVT: hydee.Time(hydee.Millisecond)}
	bad := map[string]hydee.FailureEvent{
		"non-positive virtual time": {Ranks: []int{1}, When: hydee.FailureTrigger{AtVT: -1}},
		"empty trigger":             {Ranks: []int{1}},
		"empty victim list":         {When: at},
		"out-of-range victim rank":  {Ranks: []int{5}, When: at},
	}
	for name, ev := range bad {
		// Plan errors surface at New, not at the first run.
		if _, err := hydee.New(hydee.WithRanks(2), hydee.WithProtocol(hydee.HydEE()),
			hydee.WithFailureEvents(ev)); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
	// A later WithFailureEvents replaces an earlier one.
	eng, err := hydee.New(hydee.WithRanks(2),
		hydee.WithFailureEvents(bad["out-of-range victim rank"]),
		hydee.WithFailureEvents(hydee.FailureEvent{Ranks: []int{1}, When: at}))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Config().Failures; len(got) != 1 || got[0].Ranks[0] != 1 {
		t.Errorf("plan %+v, want the later option's one event", got)
	}
}

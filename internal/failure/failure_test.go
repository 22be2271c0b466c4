package failure

import (
	"testing"

	"hydee/internal/vtime"
)

// plan files events for a 6-rank run, as the runtime does at run start.
func plan(t *testing.T, events ...Event) [][]Event {
	t.Helper()
	if err := Validate(events, 6); err != nil {
		t.Fatal(err)
	}
	return ByFirstVictim(events, 6)
}

func TestTriggerAtVT(t *testing.T) {
	p := plan(t, Event{
		Ranks: []int{2},
		When:  Trigger{AtVT: vtime.Time(100)},
	})
	if got := Next(&p[2], 99, 0, 0); got != nil {
		t.Fatalf("fired early: %v", got)
	}
	if got := Next(&p[1], 1000, 0, 0); got != nil {
		t.Fatal("fired for the wrong rank")
	}
	got := Next(&p[2], 100, 0, 0)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("due: %v", got)
	}
	// Fires only once.
	if got := Next(&p[2], 200, 0, 0); got != nil {
		t.Fatal("fired twice")
	}
	if len(p[2]) != 0 {
		t.Fatalf("fired event still pending: %v", p[2])
	}
}

func TestTriggerAfterSends(t *testing.T) {
	p := plan(t, Event{
		Ranks: []int{0, 5},
		When:  Trigger{AfterSends: 3},
	})
	if p[5] != nil {
		t.Fatal("event filed under a victim other than the first")
	}
	if Next(&p[0], 0, 2, 0) != nil {
		t.Fatal("fired early")
	}
	got := Next(&p[0], 0, 3, 0)
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("multi-rank event wrong: %v", got)
	}
}

func TestTriggerAfterCheckpoints(t *testing.T) {
	p := plan(t, Event{
		Ranks: []int{1},
		When:  Trigger{AfterCheckpoints: 2},
	})
	if Next(&p[1], 0, 0, 1) != nil {
		t.Fatal("fired early")
	}
	if Next(&p[1], 0, 0, 2) == nil {
		t.Fatal("did not fire")
	}
}

func TestMultipleEventsIndependent(t *testing.T) {
	p := plan(t,
		Event{Ranks: []int{0}, When: Trigger{AfterSends: 1}},
		Event{Ranks: []int{1}, When: Trigger{AfterSends: 1}},
	)
	if Next(&p[0], 0, 1, 0) == nil {
		t.Fatal("event 0 did not fire")
	}
	if len(p[1]) != 1 {
		t.Fatalf("rank 1's event consumed by rank 0: %v", p[1])
	}
	if Next(&p[1], 0, 5, 0) == nil {
		t.Fatal("event 1 did not fire")
	}
}

// TestSharedFirstVictimFiresInListOrder holds two events filed under one
// rank, both due at once, to the plan's order: one per interaction point.
func TestSharedFirstVictimFiresInListOrder(t *testing.T) {
	events := []Event{
		{Ranks: []int{3, 4}, When: Trigger{AfterCheckpoints: 1}},
		{Ranks: []int{0}, When: Trigger{AtVT: 10}},
		{Ranks: []int{3}, When: Trigger{AtVT: 10}},
	}
	p := plan(t, events...)
	if got := Next(&p[3], 50, 0, 1); len(got) != 2 || got[1] != 4 {
		t.Fatalf("first point fired %v, want event 0's [3 4]", got)
	}
	if got := Next(&p[3], 50, 0, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("second point fired %v, want event 2's [3]", got)
	}
	if got := Next(&p[3], 50, 0, 1); got != nil {
		t.Fatalf("third point fired %v", got)
	}
	// Firing neither mutates nor aliases the caller's events.
	got := Next(&p[0], 50, 0, 0)
	got[0] = 9
	if events[1].Ranks[0] != 0 || len(events) != 3 {
		t.Fatalf("caller's plan changed: %v", events)
	}
}

func TestNilScheduleNeverFires(t *testing.T) {
	if p := ByFirstVictim(nil, 4); p != nil {
		t.Fatalf("nil plan filed as %v", p)
	}
	if p := ByFirstVictim([]Event{}, 4); p != nil {
		t.Fatalf("empty plan filed as %v", p)
	}
	var pending []Event
	if Next(&pending, 1<<60, 1<<40, 1<<30) != nil {
		t.Fatal("empty list fired")
	}
}

func TestEmptyTriggerNeverFires(t *testing.T) {
	if (Trigger{}).hit(1<<60, 1<<40, 1<<30) {
		t.Fatal("empty trigger holds")
	}
	pending := []Event{{Ranks: []int{0}}}
	if Next(&pending, 1<<60, 1<<40, 1<<30) != nil {
		t.Fatal("empty trigger fired")
	}
	if Validate(pending, 1) == nil {
		t.Fatal("Validate accepted an empty trigger")
	}
}

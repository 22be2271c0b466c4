package core

// Property-based tests (testing/quick) of the protocol's core data
// structures: the sender-based log store and the RPP table. These are the
// structures whose invariants the recovery machinery rests on.

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestLogStoreProperties: for any sequence of monotone-dated entries to
// several destinations and any per-destination watermarks, above(w) and
// pruneUpTo(w) partition each destination's entries exactly, byte
// accounting matches, above() results are date-sorted, other destinations
// are untouched, pruned entries drop their payloads, and the saved form
// matches a per-destination map.
func TestLogStoreProperties(t *testing.T) {
	f := func(gaps []uint8, wseeds []uint16) bool {
		var ls liveState
		ref := newRefState()
		date := int64(0)
		for i, g := range gaps {
			date += int64(g%7) + 1 // strictly increasing dates
			le := logEntry{Dst: int(g) % 4, Date: date, Phase: i % 5, WireLen: (i % 13) + 1, Data: []byte{g}}
			ls.add(le)
			ref.add(le)
		}
		if ls.bytes != ref.bytes {
			return false
		}
		for i, ws := range wseeds {
			dst := i % 5 // 4 never logged to
			w := int64(ws) % (date + 2)
			above := ls.above(nil, dst, w)
			if !slices.EqualFunc(above, ref.above(dst, w), sameEntry) {
				return false
			}
			if !slices.IsSortedFunc(above, func(a, b logEntry) int { return cmp.Compare(a.Date, b.Date) }) {
				return false
			}
			var before []logEntry
			if p := ls.find(dst); p != nil {
				before = p.log
			}
			if ls.pruneUpTo(dst, w) != ref.pruneUpTo(dst, w) || ls.bytes != ref.bytes {
				return false
			}
			// After pruning, everything is above the watermark.
			if !slices.EqualFunc(ls.above(nil, dst, 0), above, sameEntry) {
				return false
			}
			if payloads(before) != len(above) {
				return false // a pruned entry kept its payload
			}
		}
		_, logs := ls.saved()
		return reflect.DeepEqual(logs, ref.logStore())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sameEntry(a, b logEntry) bool { return reflect.DeepEqual(a, b) }

// payloads counts the entries of a log's array that hold a payload.
func payloads(log []logEntry) int {
	n := 0
	for _, le := range log {
		if le.Data != nil {
			n++
		}
	}
	return n
}

// TestRPPChannelProperties: MaxDate equals the maximum recorded date, every
// record is retrievable with its phase, and pruning removes exactly the
// entries at or below the bound while never lowering MaxDate (the watermark
// must survive pruning — the sender can still suppress against it).
func TestRPPChannelProperties(t *testing.T) {
	f := func(raw []uint16, bound uint16) bool {
		var p peer
		seen := make(map[int64]int)
		var max int64
		for i, r := range raw {
			d := int64(r%97) + 1
			ph := i % 9
			p.record(d, ph)
			seen[d] = ph
			if d > max {
				max = d
			}
		}
		if p.maxDate != max || len(p.rpp) != len(seen) {
			return false
		}
		for i, r := range p.rpp {
			if seen[r.date] != r.phase || i > 0 && p.rpp[i-1].date >= r.date {
				return false
			}
		}
		b := int64(bound % 120)
		p.rpp = p.rppAbove(b)
		for _, r := range p.rpp {
			if r.date <= b {
				return false
			}
		}
		for d, ph := range seen {
			if d > b && !slices.ContainsFunc(p.rpp, func(r rppRec) bool { return r.date == d && r.phase == ph }) {
				return false
			}
		}
		return p.maxDate == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseUpdateProperties: the Algorithm 1 phase rules as pure
// properties — after any delivery the phase never decreases; an
// inter-cluster delivery leaves the phase strictly above the message phase;
// an intra-cluster one at least at the message phase.
func TestPhaseUpdateProperties(t *testing.T) {
	f := func(phases []uint8, interMask uint16) bool {
		e, _ := newTestEngine(0, []int{0, 0, 1})
		for i, p := range phases {
			inter := interMask&(1<<(i%16)) != 0
			src := 1 // intra
			if inter {
				src = 2
			}
			m := appMsg(src, 0, 1, 10)
			m.Date = int64(i) + 1
			m.Phase = int(p % 12)
			before := e.phase
			e.OnDeliver(m)
			if e.phase < before {
				return false
			}
			if inter && e.phase < m.Phase+1 {
				return false
			}
			if !inter && e.phase < m.Phase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

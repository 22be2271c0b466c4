package core

import (
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/transport"
)

// countsAssign is three clusters of two; round 1 rolls back clusters 1 and
// 2 (ranks 2-5), so a survivor in cluster 0 expects four RollbackNotes and
// a rolled-back rank expects two, plus four watermarks.
var countsAssign = []int{0, 0, 1, 1, 2, 2}

var countsRound = rollback.RoundInfo{
	Round:      1,
	RolledBack: []int{2, 3, 4, 5},
	AllIncs:    []int32{0, 0, 1, 1, 1, 1},
}

func ctlFrom(src int, body any) *transport.Msg {
	return &transport.Msg{Src: src, Kind: transport.Ctl, CtlBody: body}
}

func noteFrom(src int) *transport.Msg {
	return ctlFrom(src, RollbackNote{Round: 1, NewInc: 1})
}

func lastDateFrom(src int) *transport.Msg { return ctlFrom(src, LastDate{Round: 1}) }

var (
	roundStart = ctlFrom(6, RoundStart{Round: 1, RolledBack: countsRound.RolledBack, AllIncs: countsRound.AllIncs})
	release    = ctlFrom(6, NotifySendMsg{Round: 1, Phase: 1})
)

// TestRoundCountsReportAndGate delivers one round's control messages one
// at a time, in several orders, and checks after each that the Report goes
// out exactly with the last expected RollbackNote and that the first send
// passes its gate exactly once the release and the last watermark are in.
func TestRoundCountsReportAndGate(t *testing.T) {
	cases := []struct {
		name   string
		rank   int
		rolled bool
		steps  []*transport.Msg
		// report and open are the step indexes after which the Report must
		// have gone out and the send gate must open.
		report, open int
	}{
		{"survivor, notes before RoundStart", 0, false,
			[]*transport.Msg{noteFrom(2), noteFrom(4), roundStart, noteFrom(3), noteFrom(5), release}, 4, 5},
		{"survivor, every note before RoundStart", 1, false,
			[]*transport.Msg{noteFrom(5), noteFrom(4), noteFrom(3), noteFrom(2), roundStart, release}, 4, 5},
		{"survivor, RoundStart first", 0, false,
			[]*transport.Msg{roundStart, noteFrom(2), noteFrom(3), noteFrom(4), noteFrom(5), release}, 4, 5},
		// A survivor's gate waits on the release alone, never on notes.
		{"survivor, released before the last note", 0, false,
			[]*transport.Msg{roundStart, noteFrom(2), release, noteFrom(3), noteFrom(4), noteFrom(5)}, 5, 2},
		{"rolled back, LastDates then peer notes", 2, true,
			[]*transport.Msg{roundStart, release, lastDateFrom(0), lastDateFrom(1), noteFrom(4), noteFrom(5)}, 5, 5},
		{"rolled back, peer notes then LastDates", 3, true,
			[]*transport.Msg{release, noteFrom(5), roundStart, noteFrom(4), lastDateFrom(1), lastDateFrom(0)}, 3, 5},
		{"rolled back, interleaved, released last", 4, true,
			[]*transport.Msg{noteFrom(2), lastDateFrom(0), roundStart, noteFrom(3), lastDateFrom(1), release}, 3, 5},
		{"rolled back, released between watermarks", 5, true,
			[]*transport.Msg{lastDateFrom(1), noteFrom(3), release, noteFrom(2), roundStart, lastDateFrom(0)}, 3, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, px := newTestEngine(tc.rank, countsAssign)
			if tc.rolled {
				e.OnRestore(&checkpoint.Snapshot{Rank: tc.rank}, &countsRound)
			}
			isReport := func(b any) bool { _, ok := b.(Report); return ok }
			isLastDate := func(b any) bool { _, ok := b.(LastDate); return ok }
			notes := 0
			for i, m := range tc.steps {
				e.OnCtl(m)
				if _, ok := m.CtlBody.(RollbackNote); ok {
					notes++
				}
				wantReports := 0
				if i >= tc.report {
					wantReports = 1
				}
				if got := len(px.ctlOfType(isReport)); got != wantReports {
					t.Fatalf("after step %d: %d Reports, want %d", i, got, wantReports)
				}
				// Survivors answer every note with a LastDate; a rolled-back
				// process answers none, its own note carried the watermark.
				wantLD := notes
				if tc.rolled {
					wantLD = 0
				}
				if got := len(px.ctlOfType(isLastDate)); got != wantLD {
					t.Fatalf("after step %d: %d LastDates sent, want %d", i, got, wantLD)
				}
				// With nothing queued, PreSend returns only if its gate is
				// open (and, once through, stays open); a closed gate starves
				// the fake's WaitCtl, which leaves the engine as it was.
				_, err := e.PreSend(appMsg(tc.rank, 0, 1, 8))
				if open := err == nil; open != (i >= tc.open) {
					t.Fatalf("after step %d: gate open %v, want %v (err %v)", i, open, i >= tc.open, err)
				}
			}
		})
	}
}

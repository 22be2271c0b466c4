package core_test

// The paper's running example (Figures 3 and 4, §III): eight processes in
// three clusters exchange messages m1..m8. These tests pin the protocol to
// the exact phase numbers of Figure 4 and to the recovery mechanics of
// §III-B (m3 becomes an orphan when Cluster 2 fails; m7 cannot be replayed
// while a lower-phase orphan is outstanding).

import (
	"testing"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/vtime"
)

// Clusters of the figure: C1 = {P1}, C2 = {P2,P3,P4}, C3 = {P5..P8}.
var figClusters = []int{0, 1, 1, 1, 2, 2, 2, 2}

const (
	m1 = iota + 1
	m2
	m3
	m4
	m5
	m6
	m7
	m8
)

func figProgram(c *mpi.Comm) error {
	payload := []byte{byte(c.Rank())}
	send := func(dst, tag int) error { return c.Send(dst, tag, payload) }
	recv := func(src, tag int) error {
		_, _, err := c.Recv(src, tag)
		return err
	}
	switch c.Rank() {
	case 0: // P1
		return send(1, m1)
	case 1: // P2
		if err := recv(0, m1); err != nil {
			return err
		}
		return send(2, m2)
	case 2: // P3
		if err := recv(1, m2); err != nil {
			return err
		}
		if err := send(4, m3); err != nil {
			return err
		}
		return recv(3, m8)
	case 3: // P4
		if err := recv(6, m7); err != nil {
			return err
		}
		return send(2, m8)
	case 4: // P5
		if err := recv(2, m3); err != nil {
			return err
		}
		return send(5, m4)
	case 5: // P6
		if err := recv(4, m4); err != nil {
			return err
		}
		return send(6, m5)
	case 6: // P7
		// m5 and m6 are concurrent; either order yields the same m7.
		if err := recv(mpi.AnySource, mpi.AnyTag); err != nil {
			return err
		}
		if err := recv(mpi.AnySource, mpi.AnyTag); err != nil {
			return err
		}
		return send(3, m7)
	case 7: // P8
		return send(6, m6)
	}
	return nil
}

func runFig(t *testing.T, sched []failure.Event) (*mpi.Result, map[int]int) {
	t.Helper()
	rec := trace.NewRecorder(8)
	res, err := mpi.Run(mpi.Config{
		NP:       8,
		Topo:     rollback.NewTopology(figClusters),
		Protocol: core.New(),
		Model:    netmodel.Myrinet10G(),
		Failures: sched,
		Recorder: rec,
	}, figProgram)
	if err != nil {
		t.Fatal(err)
	}
	phases := make(map[int]int)
	for _, evs := range rec.Events() {
		for _, ev := range evs {
			if ev.Op == trace.Send {
				phases[ev.Tag] = ev.Phase
			}
		}
	}
	return res, phases
}

// wantFigPhases pins the phase of every message to Figure 4.
var wantFigPhases = map[int]int{m1: 1, m2: 2, m3: 2, m4: 3, m5: 3, m6: 1, m7: 3, m8: 4}

func TestPaperScenarioPhases(t *testing.T) {
	_, phases := runFig(t, nil)
	for tag, want := range wantFigPhases {
		if phases[tag] != want {
			t.Errorf("m%d: phase %d, want %d (Figure 4)", tag, phases[tag], want)
		}
	}
}

func TestPaperScenarioCluster2Failure(t *testing.T) {
	// §III-B: Cluster 2 fails after P3 sent m3; m3 becomes an orphan. The
	// whole cluster {P2,P3,P4} restarts from its initial state (no
	// checkpoint was taken), re-executes, and suppresses the orphan send.
	res, phases := runFig(t, []failure.Event{{
		Ranks: []int{2},
		When:  failure.Trigger{AfterSends: 1},
	}})
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds: %d", len(res.Rounds))
	}
	rd := res.Rounds[0]
	if rd.RolledBack != 3 {
		t.Fatalf("rolled back %d ranks, want the 3 of Cluster 2", rd.RolledBack)
	}
	if rd.Orphans != 1 {
		t.Fatalf("orphans %d, want exactly m3", rd.Orphans)
	}
	if res.Totals.Suppressed != 1 {
		t.Fatalf("suppressed %d, want 1 (the re-executed m3)", res.Totals.Suppressed)
	}
	// m1 must be replayed from P1's log (P2 lost it); m7 may or may not
	// have been sent before the failure.
	if res.Totals.ResentLogged < 1 || res.Totals.ResentLogged > 2 {
		t.Fatalf("resent logged %d, want 1..2 (m1, possibly m7)", res.Totals.ResentLogged)
	}
	for tag, want := range wantFigPhases {
		if phases[tag] != want {
			t.Errorf("m%d: phase %d changed after recovery, want %d (Lemma 4)", tag, phases[tag], want)
		}
	}
}

func TestPaperScenarioCluster3Failure(t *testing.T) {
	// Kill P5 at the moment it would send m4: it has delivered m3 but
	// Cluster 3 has no checkpoint, so the restart loses it and P3 must
	// replay m3 from its log — and m7 was certainly not sent yet (§III-B
	// scenario (i)).
	res, phases := runFig(t, []failure.Event{{
		Ranks: []int{4},
		When:  failure.Trigger{AtVT: vtime.Time(1)},
	}})
	if len(res.Rounds) != 1 || res.Rounds[0].RolledBack != 4 {
		t.Fatalf("rounds: %+v", res.Rounds)
	}
	if res.Totals.ResentLogged != 1 {
		t.Fatalf("resent %d logged messages, want exactly m3", res.Totals.ResentLogged)
	}
	if res.Rounds[0].Orphans != 0 {
		t.Fatalf("orphans %d, want 0 (nothing from Cluster 3 was delivered outside)", res.Rounds[0].Orphans)
	}
	for tag, want := range wantFigPhases {
		if phases[tag] != want {
			t.Errorf("m%d: phase %d, want %d", tag, phases[tag], want)
		}
	}
}

func TestPaperScenarioBothClustersFail(t *testing.T) {
	// "If both Cluster2 and Cluster3 roll back, m7 can be sent during
	// recovery of Cluster3" — two concurrent cluster failures in one
	// round.
	res, phases := runFig(t, []failure.Event{{
		Ranks: []int{2, 6},
		When:  failure.Trigger{AfterSends: 1},
	}})
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds: %d", len(res.Rounds))
	}
	if res.Rounds[0].RolledBack != 7 {
		t.Fatalf("rolled back %d, want the 7 ranks of Clusters 2 and 3", res.Rounds[0].RolledBack)
	}
	for tag, want := range wantFigPhases {
		if phases[tag] != want {
			t.Errorf("m%d: phase %d, want %d", tag, phases[tag], want)
		}
	}
}

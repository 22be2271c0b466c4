package rollback

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"hydee/internal/checkpoint"
	"hydee/internal/transport"
)

func TestTopologyBuilders(t *testing.T) {
	topo := NewTopology([]int{0, 0, 1, 1, 2, 2})
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.K() != 3 || topo.NP != 6 {
		t.Fatalf("K=%d NP=%d", topo.K(), topo.NP)
	}
	if !topo.SameCluster(0, 1) || topo.SameCluster(1, 2) {
		t.Fatal("SameCluster wrong")
	}
	if got := topo.Members[1]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("members: %v", got)
	}

	single := SingleCluster(4)
	if single.K() != 1 || len(single.Members[0]) != 4 {
		t.Fatal("SingleCluster wrong")
	}
	singles := Singletons(4)
	if singles.K() != 4 {
		t.Fatal("Singletons wrong")
	}
}

func TestClustersOfAndRanksOf(t *testing.T) {
	topo := NewTopology([]int{0, 0, 1, 1, 2, 2})
	cl := topo.ClustersOf([]int{5, 0, 4})
	if len(cl) != 2 || cl[0] != 0 || cl[1] != 2 {
		t.Fatalf("clusters: %v", cl)
	}
	ranks := topo.RanksOf(cl)
	want := []int{0, 1, 4, 5}
	if len(ranks) != len(want) {
		t.Fatalf("ranks: %v", ranks)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks: %v", ranks)
		}
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	bad := &Topology{NP: 3, ClusterOf: []int{0, 0}}
	if bad.Validate() == nil {
		t.Fatal("accepted mismatched NP")
	}
	bad2 := &Topology{NP: 2, ClusterOf: []int{0, 0}, Members: [][]int{{0, 1}, {}}}
	if bad2.Validate() == nil {
		t.Fatal("accepted empty cluster")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{AppSends: 1, LoggedBytes: 10, LogPeakBytes: 100}
	b := Metrics{AppSends: 2, LoggedBytes: 5, LogPeakBytes: 50, Suppressed: 3}
	a.Add(&b)
	if a.AppSends != 3 || a.LoggedBytes != 15 || a.Suppressed != 3 {
		t.Fatalf("add: %+v", a)
	}
	if a.LogPeakBytes != 100 {
		t.Fatalf("peak should be max, got %d", a.LogPeakBytes)
	}
}

func TestRoundInfoIncludes(t *testing.T) {
	r := RoundInfo{RolledBack: []int{2, 3}}
	if !r.Includes(2) || r.Includes(4) {
		t.Fatal("Includes wrong")
	}
}

func TestNativeProtocol(t *testing.T) {
	p := Native()
	if p.Name() != "native" {
		t.Fatal("native misconfigured")
	}
	if scope := p.RestartScope(NewTopology([]int{0, 0, 1, 1}), []int{2}); len(scope) != 0 {
		t.Fatalf("native cannot recover, yet restarts %v", scope)
	}
	if p.NewRecovery(nil) != nil {
		t.Fatal("native should have no recovery coordinator")
	}
	e := p.NewEngine(0, nil)
	m := &transport.Msg{Dst: 1}
	v, err := e.PreSend(m)
	if err != nil || v.Suppress || v.PiggyWire != 0 {
		t.Fatalf("native PreSend: %+v %v", v, err)
	}
	if m.Date != 1 {
		t.Fatalf("date %d", m.Date)
	}
	m2 := &transport.Msg{Dst: 1}
	if _, err := e.PreSend(m2); err != nil || m2.Date != 2 {
		t.Fatal("date not monotonic")
	}
	if !e.Admit(m) {
		t.Fatal("native must admit everything")
	}
	if len(e.CheckpointScope()) != 0 {
		t.Fatal("native must not checkpoint")
	}
}

// topoProc is the one Proc method a baseline engine calls.
type topoProc struct {
	Proc
	topo *Topology
}

func (p topoProc) Topo() *Topology { return p.topo }

// TestCoordinatedCheckpointWireForm pins the bytes of the coordinated
// baseline's checkpoint ProtState at dates 0 and 7. Without ModelBytes a
// checkpoint costs its encoded length in virtual time, so renaming
// engineState or its field moves every coord makespan. gob numbers types
// per process: this must stay the first test in this binary that encodes.
func TestCoordinatedCheckpointWireForm(t *testing.T) {
	encode := func(e Engine) string {
		t.Helper()
		snap := &checkpoint.Snapshot{}
		e.OnCheckpoint(snap)
		release, err := snap.BorrowProtState()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return hex.EncodeToString(snap.ProtState)
	}
	e := Coordinated().NewEngine(0, topoProc{topo: SingleCluster(2)})
	at0 := encode(e)
	for i := range 4 {
		if _, err := e.PreSend(&transport.Msg{Dst: 1}); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			e.OnDeliver(&transport.Msg{Src: 1})
		}
	}
	at7 := encode(e)
	const wireType = "217f0301010b656e67696e65537461746501ff8000010101044461746501040000"
	for _, c := range []struct{ name, got, want string }{
		{"date 0", at0, wireType + "0003ff8000"},
		{"date 7", at7, wireType + "0005ff80010e00"},
	} {
		if c.got != c.want {
			t.Errorf("%s: the coordinated checkpoint wire form changed:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	// The state restores: the next send is dated 8.
	b, err := hex.DecodeString(at7)
	if err != nil {
		t.Fatal(err)
	}
	r := Coordinated().NewEngine(0, topoProc{topo: SingleCluster(2)})
	r.OnRestore(&checkpoint.Snapshot{ProtState: b}, &RoundInfo{})
	m := &transport.Msg{Dst: 1}
	if _, err := r.PreSend(m); err != nil || m.Date != 8 {
		t.Fatalf("restored engine sent date %d (%v), want 8", m.Date, err)
	}
}

// Property: NewTopology(assign) partitions ranks: every rank appears in
// exactly one cluster's member list, at the index its assignment says.
func TestTopologyPartitionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		assign := make([]int, len(raw))
		for i, r := range raw {
			assign[i] = int(r % 5)
		}
		// Compact ids so no cluster is empty.
		seen := map[int]int{}
		for i, c := range assign {
			k, ok := seen[c]
			if !ok {
				k = len(seen)
				seen[c] = k
			}
			assign[i] = k
		}
		topo := NewTopology(assign)
		if topo.Validate() != nil {
			return false
		}
		count := 0
		for c, members := range topo.Members {
			for _, r := range members {
				if topo.ClusterOf[r] != c {
					return false
				}
				count++
			}
		}
		return count == len(assign)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

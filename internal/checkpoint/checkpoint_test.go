package checkpoint

import (
	"testing"
	"testing/quick"

	"hydee/internal/transport"
	"hydee/internal/vtime"
)

type demoState struct {
	Iter int
	V    []float64
}

func TestEncodeDecodeState(t *testing.T) {
	in := &demoState{Iter: 7, V: []float64{1.5, -2.25, 3}}
	b, err := EncodeState(in)
	if err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := DecodeState(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 7 || len(out.V) != 3 || out.V[1] != -2.25 {
		t.Fatalf("round trip broken: %+v", out)
	}
}

func TestDecodeGarbage(t *testing.T) {
	var out demoState
	if err := DecodeState([]byte{1, 2, 3}, &out); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	s := &Snapshot{
		Rank:     1,
		Seq:      2,
		AppState: []byte{1, 2, 3},
		Mailbox:  []*transport.Msg{{Src: 0, Data: []byte{9}}},
	}
	c := s.Clone()
	s.AppState[0] = 99
	s.Mailbox[0].Data[0] = 99
	if c.AppState[0] != 1 || c.Mailbox[0].Data[0] != 9 {
		t.Fatal("clone shares memory with the original")
	}
}

func TestCostBytes(t *testing.T) {
	s := &Snapshot{AppState: make([]byte, 100)}
	if s.CostBytes() != s.EncodedSize() {
		t.Fatal("default cost should be the encoded size")
	}
	s.ModelBytes = 5_000_000
	if s.CostBytes() != 5_000_000 {
		t.Fatal("ModelBytes should win")
	}
}

func TestStoreHistoryAndMinSeqRestore(t *testing.T) {
	st := NewMemStore(0, 0)
	for seq := 1; seq <= 5; seq++ {
		if _, err := st.Save(&Snapshot{Rank: 3, Seq: seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// historyKeep generations retained: 3,4,5 stay, 1,2 pruned.
	if _, _, ok := st.Load(3, 2, 0); ok {
		t.Fatal("ancient snapshot not pruned")
	}
	for seq := 3; seq <= 5; seq++ {
		if _, _, ok := st.Load(3, seq, 0); !ok {
			t.Fatalf("generation %d missing", seq)
		}
	}
	if _, _, ok := st.Load(99, 1, 0); ok {
		t.Fatal("unknown rank loaded")
	}
}

func TestStoreSaveIsolation(t *testing.T) {
	st := NewMemStore(0, 0)
	s := &Snapshot{Rank: 0, Seq: 1, AppState: []byte{1}}
	if _, err := st.Save(s, 0); err != nil {
		t.Fatal(err)
	}
	s.AppState[0] = 77 // mutate after save
	got, _, ok := st.Load(0, 1, 0)
	if !ok || got.AppState[0] != 1 {
		t.Fatal("store did not clone on save")
	}
	got.AppState[0] = 88 // mutate loaded copy
	got2, _, _ := st.Load(0, 1, 0)
	if got2.AppState[0] != 1 {
		t.Fatal("store did not clone on load")
	}
}

func TestStoreBurstContention(t *testing.T) {
	// 1 GB/s shared link; two 100 MB checkpoints issued at t=0 serialize:
	// the second completes at 200ms and the queue peak is 100ms.
	st := NewMemStore(1e9, 1e9)
	end1, err := st.Save(&Snapshot{Rank: 0, Seq: 1, ModelBytes: 100e6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	end2, err := st.Save(&Snapshot{Rank: 1, Seq: 1, ModelBytes: 100e6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end1 != vtime.Time(100*vtime.Millisecond) {
		t.Fatalf("first write end %v", end1)
	}
	if end2 != vtime.Time(200*vtime.Millisecond) {
		t.Fatalf("second write end %v (no burst serialization)", end2)
	}
	if q := st.Stats().MaxQueue; q != 100*vtime.Millisecond {
		t.Fatalf("max queue %v", q)
	}
	// A staggered writer sees no queue.
	end3, _ := st.Save(&Snapshot{Rank: 2, Seq: 1, ModelBytes: 100e6}, end2)
	if end3 != end2.Add(100*vtime.Millisecond) {
		t.Fatalf("staggered write end %v", end3)
	}
	// Reads are timed too.
	_, rend, ok := st.Load(0, 1, 0)
	if !ok || rend != vtime.Time(100*vtime.Millisecond) {
		t.Fatalf("read timing %v %v", rend, ok)
	}
}

func TestStoreStats(t *testing.T) {
	st := NewMemStore(0, 0)
	_, _ = st.Save(&Snapshot{Rank: 0, Seq: 1, ModelBytes: 10}, 0)
	_, _, _ = st.Load(0, 1, 0)
	s := st.Stats()
	if s.Saves != 1 || s.Loads != 1 || s.SavedBytes != 10 {
		t.Fatalf("stats: %+v", s)
	}
}

// Property: after any sequence of saves, the most recently saved
// sequence is loadable. Within one run a rank's sequences are monotone;
// a save at or below an earlier one means a new run reuses the store, and
// pruning must not reclaim the new run's snapshot against the old run's
// higher sequences.
func TestStoreProperties(t *testing.T) {
	f := func(seqs []uint8) bool {
		st := NewMemStore(0, 0)
		last := 0
		for _, s := range seqs {
			seq := int(s%50) + 1
			if _, err := st.Save(&Snapshot{Rank: 1, Seq: seq}, 0); err != nil {
				return false
			}
			last = seq
		}
		if last == 0 {
			return true
		}
		_, _, ok := st.Load(1, last, 0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hydee/internal/transport"
)

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		Rank:     2,
		Seq:      1,
		AppState: []byte{1, 2, 3},
		Mailbox:  []*transport.Msg{{Src: 0, Dst: 2, Date: 7, Data: []byte{9}}},
	}
	if _, err := st.Save(snap, 0); err != nil {
		t.Fatal(err)
	}
	got, _, ok := st.Load(2, 1, 0)
	if !ok {
		t.Fatal("snapshot not found")
	}
	if got.AppState[0] != 1 || len(got.Mailbox) != 1 || got.Mailbox[0].Date != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestFileStoreRecoversIndexFromDisk(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if _, err := st.Save(&Snapshot{Rank: 5, Seq: seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen over the same directory: every retained generation loads.
	st2, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if s, _, ok := st2.Load(5, seq, 0); !ok || s.Rank != 5 || s.Seq != seq {
			t.Fatalf("seq %d unreadable after reopen (ok=%v)", seq, ok)
		}
	}
}

func TestFileStorePrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 6; seq++ {
		if _, err := st.Save(&Snapshot{Rank: 0, Seq: seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := st.Load(0, 1, 0); ok {
		t.Fatal("generation 1 should be pruned")
	}
	for seq := 4; seq <= 6; seq++ {
		if _, _, ok := st.Load(0, seq, 0); !ok {
			t.Fatalf("generation %d missing", seq)
		}
	}
}

// TestFileStoreHostileFiles: files that do not decode to the snapshot
// their name promises — truncated, empty, the old gob format, another
// sequence's blob — each read as a missing checkpoint, without a panic,
// and a store reopened over the directory still loads the intact ones.
func TestFileStoreHostileFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		if _, err := st.Save(codecSnap(rank, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	intact, err := os.ReadFile(st.path(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(codecSnap(3, 1)); err != nil {
		t.Fatal(err)
	}
	for path, b := range map[string][]byte{
		st.path(1, 1): intact[:len(intact)-3],
		st.path(2, 1): nil,
		st.path(3, 1): old.Bytes(),
		st.path(1, 2): intact,
		// A directory written before the format change holds .gob files.
		filepath.Join(dir, "ckpt-0-2.gob"): old.Bytes(),
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]*FileStore{"open": st, "reopened": reopened} {
		for _, c := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {0, 2}} {
			if s, _, ok := fs.Load(c[0], c[1], 0); ok {
				t.Errorf("%s: rank %d seq %d: hostile file loaded as %+v", name, c[0], c[1], s)
			}
		}
		got, _, ok := fs.Load(0, 1, 0)
		if !ok || !reflect.DeepEqual(got, codecSnap(0, 1)) {
			t.Errorf("%s: intact rank 0 seq 1: ok=%v snap=%+v", name, ok, got)
		}
	}
	if loads := reopened.Stats().Loads; loads != 1 {
		t.Errorf("reopened store counted %d loads, want only the intact one", loads)
	}
}

// hysn1 lays s out in the superseded HYSN1 format: today's layout under
// the old magic, with a recovery-round varint (always 0) after each
// mailbox message's Epoch.
func hysn1(s *Snapshot) []byte {
	b := []byte("HYSN1")
	v := func(xs ...int64) {
		for _, x := range xs {
			b = binary.AppendVarint(b, x)
		}
	}
	str := func(p []byte) {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	v(int64(s.Rank), int64(s.Seq), int64(s.TakenVT), int64(s.CkptCallIdx), s.CollSeq, s.ModelBytes)
	str(s.AppState)
	str(s.ProtState)
	b = binary.AppendUvarint(b, uint64(len(s.Mailbox)))
	for _, m := range s.Mailbox {
		v(int64(m.Src), int64(m.Dst), int64(m.Kind), int64(m.Tag), m.Date, int64(m.Phase),
			int64(m.Inc), int64(m.IncSeen), int64(m.Epoch), 0, int64(m.WireLen), int64(m.PiggyLen))
		str(m.Data)
		v(int64(m.SendVT), int64(m.ArriveVT))
	}
	return b
}

// TestFileStoreOldLayoutAbsent: a checkpoint file written in the HYSN1
// layout, with and without mailbox messages, reads as a missing
// checkpoint, not as a misdecoded snapshot.
func TestFileStoreOldLayoutAbsent(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*Snapshot{codecSnap(0, 1), {Rank: 1, Seq: 1, AppState: []byte{1, 2, 3}}}
	for _, s := range snaps {
		if err := os.WriteFile(st.path(s.Rank, s.Seq), hysn1(s), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, _, ok := st.Load(s.Rank, s.Seq, 0); ok {
			t.Errorf("rank %d: HYSN1 blob loaded as %+v", s.Rank, got)
		}
	}
}

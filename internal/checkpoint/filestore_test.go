package checkpoint

import (
	"bytes"
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

package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hydee/internal/vtime"
)

func shardSnap(rank, seq int, bytes int64) *Snapshot {
	return &Snapshot{Rank: rank, Seq: seq, ModelBytes: bytes}
}

func TestShardedRoutingAndStats(t *testing.T) {
	// Per-cluster placement: ranks 0,1 -> shard 0; ranks 2,3 -> shard 1.
	cluster := []int{0, 0, 1, 1}
	st := NewShardedStore(2, 0, 0, func(r int) int { return cluster[r] })
	for r := 0; r < 4; r++ {
		if _, err := st.Save(shardSnap(r, 1, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	per := st.ShardStats()
	if per[0].Saves != 2 || per[1].Saves != 2 {
		t.Errorf("per-shard saves = %d/%d, want 2/2", per[0].Saves, per[1].Saves)
	}
	agg := st.Stats()
	if agg.Saves != 4 || agg.SavedBytes != 400 {
		t.Errorf("aggregate stats = %+v", agg)
	}
	for r := 0; r < 4; r++ {
		if s, _, ok := st.Load(r, 1, 0); !ok || s.Rank != r {
			t.Errorf("rank %d: Load failed (ok=%v)", r, ok)
		}
	}
}

func TestShardedIndependentContention(t *testing.T) {
	// 1 byte/sec per shard: a 100-byte write takes 100s of virtual time.
	// Two writes at t=0 on the same shard queue; on different shards they
	// finish simultaneously.
	shared := NewMemStore(1, 0)
	for _, rank := range []int{0, 1} {
		if end, err := shared.Save(shardSnap(rank, 1, 100), 0); err != nil {
			t.Fatal(err)
		} else if rank == 1 && end != vtime.Time(200e9) {
			t.Errorf("shared store: second write ends at %v, want 200s (queued)", end)
		}
	}
	sharded := NewShardedStore(2, 1, 0, nil) // rank % 2 placement
	for _, rank := range []int{0, 1} {
		end, err := sharded.Save(shardSnap(rank, 1, 100), 0)
		if err != nil {
			t.Fatal(err)
		}
		if end != vtime.Time(100e9) {
			t.Errorf("sharded store: rank %d write ends at %v, want 100s (no cross-shard queue)", rank, end)
		}
	}
	if q := sharded.Stats().MaxQueue; q != 0 {
		t.Errorf("sharded MaxQueue = %v, want 0", q)
	}
	if q := shared.Stats().MaxQueue; q != vtime.Duration(100e9) {
		t.Errorf("shared MaxQueue = %v, want 100s", q)
	}
}

func TestShardedPlacementNormalization(t *testing.T) {
	st := NewShardedStore(3, 0, 0, func(r int) int { return -1 - r })
	// Any placement value must reduce to a valid shard (including
	// negatives), and routing must be stable across Save and Load.
	for r := 0; r < 7; r++ {
		if _, err := st.Save(shardSnap(r, 2, 1), 0); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := st.Load(r, 2, 0); !ok {
			t.Errorf("rank %d not routed back to its shard", r)
		}
	}
	if st.NumShards() != 3 {
		t.Errorf("NumShards = %d", st.NumShards())
	}
}

// TestSequenceRestartSurvivesGC covers store reuse across runs (engine
// WithStore pinning): after a run drove the sequence high, a new run's
// restarted low sequences must not be pruned against the old run's
// high-water mark — the GC threshold follows the save being made.
func TestSequenceRestartSurvivesGC(t *testing.T) {
	for name, st := range map[string]Store{
		"mem":     NewMemStore(0, 0),
		"sharded": NewShardedStore(2, 0, 0, nil),
	} {
		// Run 1 checkpoints up to sequence 10.
		for seq := 1; seq <= 10; seq++ {
			if _, err := st.Save(shardSnap(0, seq, 1), 0); err != nil {
				t.Fatal(err)
			}
		}
		// Run 2 reuses the store and restarts at sequence 1.
		for seq := 1; seq <= 2; seq++ {
			if _, err := st.Save(shardSnap(0, seq, 1), 0); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := st.Load(0, seq, 0); !ok {
				t.Errorf("%s: restarted seq %d pruned against the old run's high-water mark", name, seq)
			}
		}
	}
}

func TestFileStoreSequenceRestart(t *testing.T) {
	st, err := NewFileStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		if _, err := st.Save(shardSnap(0, seq, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Save(shardSnap(0, 1, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Load(0, 1, 0); !ok {
		t.Error("restarted seq 1 not loadable")
	}
}

func TestShardedOverMixedBackends(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := NewShardedOver(nil, NewMemStore(0, 0), fs)
	for r := 0; r < 2; r++ {
		snap := shardSnap(r, 1, 0)
		snap.AppState = []byte{byte(r)}
		if _, err := st.Save(snap, 0); err != nil {
			t.Fatal(err)
		}
	}
	s, _, ok := st.Load(1, 1, 0)
	if !ok || len(s.AppState) != 1 || s.AppState[0] != 1 {
		t.Fatalf("file-backed shard load: ok=%v snap=%+v", ok, s)
	}
}

// TestShardedFileStoreReopenRoundTrip checks the durable layout: snapshots
// saved through a sharded file store survive a reopen — with the shard
// count inferred from the shard-NNN directories — and route back to the
// same shards.
func TestShardedFileStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	place := func(rank int) int { return rank % 3 }
	st, err := NewShardedFileStore(dir, 3, 0, 0, place)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		for seq := 1; seq <= 2; seq++ {
			snap := shardSnap(r, seq, 0)
			snap.AppState = []byte{byte(r), byte(seq)}
			if _, err := st.Save(snap, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d", i))); err != nil {
			t.Fatalf("layout convention: %v", err)
		}
	}

	// Reopen with the count inferred from the layout.
	re, err := NewShardedFileStore(dir, 0, 0, 0, place)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumShards() != 3 {
		t.Fatalf("reopen inferred %d shards, want 3", re.NumShards())
	}
	for r := 0; r < 6; r++ {
		s, _, ok := re.Load(r, 2, 0)
		if !ok || len(s.AppState) != 2 || s.AppState[0] != byte(r) {
			t.Errorf("rank %d: reopen load: ok=%v snap=%+v", r, ok, s)
		}
	}

	// A contradicting shard count must be rejected: placement is static.
	if _, err := NewShardedFileStore(dir, 5, 0, 0, place); err == nil {
		t.Error("reopen with a different shard count accepted")
	}
	// A fresh directory without a count is meaningless.
	if _, err := NewShardedFileStore(t.TempDir(), 0, 0, 0, nil); err == nil {
		t.Error("empty dir with no shard count accepted")
	}
}

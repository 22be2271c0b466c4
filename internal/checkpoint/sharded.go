package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hydee/internal/vtime"
)

// ShardedStore distributes snapshots over several independent backends,
// the identity layout over the shard-set core: a snapshot is one write to
// its rank's shard and one read from it, with no redundancy. Checkpoints
// placed on different shards never queue behind each other — the
// host-side parallel checkpoint-storage layout (one storage target per
// cluster) that relieves the I/O bursts of experiment E5.
//
// Placement is static: a rank's shard is fixed for the whole run, so a
// rank's save and restore always hit the same backend.
type ShardedStore struct{ shardSet }

// NewShardedStore builds a store of n independent in-memory shards, each
// with its own write/read bandwidth of writeBPS/readBPS bytes per second
// (zero disables the cost model). place maps a rank to its shard and may
// return any int — it is reduced modulo n; nil places ranks round-robin
// (rank modulo n). Per-cluster placement is obtained by passing a
// function of the topology's cluster assignment.
func NewShardedStore(n int, writeBPS, readBPS float64, place func(rank int) int) *ShardedStore {
	if n < 1 {
		n = 1
	}
	return NewShardedOver(place, memTargets(n, writeBPS, readBPS)...)
}

// NewShardedOver shards over caller-supplied backends (mixing memory- and
// file-backed shards is fine). It panics on zero shards — a sharded store
// with nothing behind it is a programming error, not a runtime condition.
// A persistent backend keeps its contents across reopens (a FileStore
// reads its files back on Load), so a sharded store reopened over the
// same backends loads what it saved before; NewShardedFileStore packages
// that into a directory-layout convention.
func NewShardedOver(place func(rank int) int, shards ...Store) *ShardedStore {
	if len(shards) == 0 {
		panic("checkpoint: NewShardedOver needs at least one shard")
	}
	return &ShardedStore{shardSet{place: place, targets: shards}}
}

// shardDirFmt is the directory-layout convention of a file-backed sharded
// store: shard i lives in <dir>/shard-<i> (three digits, so listings sort
// numerically up to 1000 shards).
const shardDirFmt = "shard-%03d"

// NewShardedFileStore builds (or reopens) a sharded store persisted under
// dir with one FileStore per shard, laid out as dir/shard-000,
// dir/shard-001, ... — the durable variant of NewShardedStore. On reopen,
// n may be zero to infer the shard count from the existing layout; a
// non-zero n that contradicts the directory's shard count is an error
// (placement is static, so re-sharding silently would route ranks to the
// wrong snapshots). Each shard loads the files it holds, so snapshots
// saved before a reopen route back to the same shards.
func NewShardedFileStore(dir string, n int, writeBPS, readBPS float64, place func(rank int) int) (*ShardedStore, error) {
	existing, err := shardDirs(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case n < 1 && len(existing) == 0:
		return nil, fmt.Errorf("checkpoint: sharded file store %s: no existing shards and no shard count given", dir)
	case n < 1:
		n = len(existing)
	case len(existing) > 0 && len(existing) != n:
		return nil, fmt.Errorf("checkpoint: sharded file store %s holds %d shards, asked for %d (placement is static; reopen with the original count)",
			dir, len(existing), n)
	}
	shards := make([]Store, n)
	for i := range shards {
		st, err := NewFileStore(filepath.Join(dir, fmt.Sprintf(shardDirFmt, i)), writeBPS, readBPS)
		if err != nil {
			return nil, err
		}
		shards[i] = st
	}
	return NewShardedOver(place, shards...), nil
}

// shardDirs lists the shard subdirectories present under dir, verifying
// they form the contiguous shard-000..shard-(k-1) convention.
func shardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if want := fmt.Sprintf(shardDirFmt, i); name != want {
			return nil, fmt.Errorf("checkpoint: sharded file store %s: found %q, want contiguous %q", dir, name, want)
		}
	}
	return names, nil
}

// Save implements Store: the snapshot goes to its rank's shard and only
// contends with that shard's writers.
func (st *ShardedStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(st, s, at) }

// stage implements stager. Over an in-memory shard the copy it keeps is
// taken here, before the turn; any other shard (a FileStore) copies in
// its own Save, so s itself goes to commit: one copy either way.
func (st *ShardedStore) stage(s *Snapshot) (staged, error) {
	i := st.home(s.Rank)
	_, mem := st.targets[i].(*MemStore)
	if mem {
		s = s.Clone()
	}
	return shardWrite{&st.shardSet, i, s, mem}, nil
}

// Load implements Store: one read from the rank's shard. A lost shard is
// a lost checkpoint, and a corrupt one is served undetected (plain
// shards carry no checksums).
func (st *ShardedStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	return st.read(st.home(rank), rank, seq, at)
}

// shardWrite is a ShardedStore's staged save: fs goes to target i through
// the shard set's write path under the turn. fs is the copy an in-memory
// target keeps or, with copied false, the caller's snapshot.
type shardWrite struct {
	ss     *shardSet
	i      int
	fs     *Snapshot
	copied bool
}

func (p shardWrite) commit(at vtime.Time) (vtime.Time, error) {
	end, _, err := p.ss.write(p.i, p.fs, at)
	return end, err
}

func (shardWrite) discard()         {}
func (p shardWrite) detached() bool { return p.copied }

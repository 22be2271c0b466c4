package checkpoint

import (
	"fmt"

	"hydee/internal/erasure"
	"hydee/internal/vtime"
)

// ECStore stores each snapshot erasure-coded across k+m shards, the
// k+m-fragment layout over the shard-set core: the snapshot is
// serialized to a deterministic blob, split into k data plus m parity
// fragments (see internal/erasure), and fragment i of rank r lands on
// shard (place(r)+i) mod (k+m). Any k surviving fragments reconstruct
// the snapshot on Load, so the store tolerates the loss or corruption of
// up to m shards per placement group at a storage cost of (k+m)/k —
// between ShardedStore (no redundancy) and ReplicatedStore (r× cost).
//
// The codec is deterministic — fragments are byte-stable — so per-shard
// queues and reconstructed snapshots reproduce exactly.
type ECStore struct {
	shardSet
	code *erasure.Code
}

// NewECStore builds a k-of-(k+m) erasure-coded store over k+m fresh
// in-memory shards, each with its own write/read bandwidth of
// writeBPS/readBPS bytes per second (zero disables the cost model).
// place maps a rank to the base shard of its fragment group and may
// return any int (reduced modulo k+m); nil places ranks round-robin.
func NewECStore(k, m int, writeBPS, readBPS float64, place func(rank int) int) (*ECStore, error) {
	code, err := erasure.New(k, m)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &ECStore{
		shardSet: shardSet{place: place, targets: memTargets(code.N(), writeBPS, readBPS)},
		code:     code,
	}, nil
}

// Save implements Store: the snapshot's encoding is written once,
// striped straight into the payloads of the k data fragments, and the m
// parity payloads are computed in place from them; fragment i lands on
// shard (base+i) mod (k+m) from the rank's base shard. The modeled cost
// per fragment is the snapshot's CostBytes()/k share plus a fixed
// envelope, so the aggregate traffic reflects the (k+m)/k redundancy
// overhead.
func (st *ECStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(st, s, at) }

// stage implements stager: encoding, striping, parity and seals happen
// here, before the turn; commit only writes the sealed fragments.
func (st *ECStore) stage(s *Snapshot) (staged, error) {
	segs, blobLen, err := snapshotSegments(s)
	if err != nil {
		return nil, err
	}
	k := st.code.K()
	bufs, payloads := st.newGroup(k, st.code.N(), st.code.ShardSize(blobLen), blobLen)
	stripe(payloads[:k], segs)
	if err := st.code.Encode(payloads[:k], payloads[k:]); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	cost := (s.CostBytes()+int64(k)-1)/int64(k) + fragmentEnvelope
	return st.sealGroup(s, st.home(s.Rank), cost, bufs), nil
}

// Load implements Store: fragments are probed in index order, all reads
// issued at `at` in parallel, until k verify (present, checksum-clean,
// consistent geometry); then the blob is reconstructed and decoded.
// Fewer than k healthy fragments is a lost checkpoint (ok=false). The
// returned completion time covers every fragment read attempted, healthy
// or not, and a load that probed past k counts as degraded.
func (st *ECStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	k, n := st.code.K(), st.code.N()
	base := st.home(rank)
	pieces := make([][]byte, n)
	blobLen := -1
	valid, probed := 0, 0
	end := at
	for i := 0; i < n && valid < k; i++ {
		fs, e, ok := st.read((base+i)%n, rank, seq, at)
		probed++
		if e > end {
			end = e
		}
		if !ok {
			continue
		}
		f, ok := parseFragment(fs.AppState)
		if !ok || f.K != k || f.M != st.code.M() || f.Index != i {
			continue
		}
		if blobLen == -1 {
			blobLen = f.BlobLen
		} else if f.BlobLen != blobLen {
			continue
		}
		pieces[i] = f.Payload
		valid++
	}
	if valid < k {
		return nil, at, false
	}
	img, err := st.code.Reconstruct(pieces)
	if err != nil || blobLen > len(img) {
		return nil, at, false
	}
	snap, err := DecodeSnapshot(img[:blobLen])
	if err != nil {
		return nil, at, false
	}
	var degraded int64
	if probed > k {
		degraded = 1
	}
	st.countLoad(degraded)
	return snap, end, true
}

// Stats implements Store with logical Saves/Loads (see logicalStats).
func (st *ECStore) Stats() StoreStats { return st.logicalStats() }

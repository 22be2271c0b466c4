package checkpoint

import (
	"fmt"

	"hydee/internal/vtime"
)

// ReplicatedStore keeps r full copies of every snapshot on r independent
// replica backends, the r-copies layout over the shard-set core — the
// FTHP-MPI-style full-replication end of the redundancy spectrum: r×
// storage cost, survival of up to r-1 replica losses, and no
// reconstruction work on the read path.
//
// Reads are first-healthy-replica: the rank's home replica (place(rank)
// mod r) is probed first and failed probes charge their read time before
// the next replica is tried, so a degraded read is visibly slower, not
// free. Replica blobs are self-verifying (checksummed containers, see
// fragment), so a corrupted replica is detected and skipped rather than
// restored from.
type ReplicatedStore struct{ shardSet }

// NewReplicatedStore builds an r-way replicated store over r fresh
// in-memory replicas, each with its own write/read bandwidth of
// writeBPS/readBPS bytes per second (zero disables the cost model).
// r must be at least 2 — one replica is just a slower MemStore. place
// maps a rank to the replica its reads try first (reduced modulo r);
// nil spreads home replicas round-robin by rank.
func NewReplicatedStore(r int, writeBPS, readBPS float64, place func(rank int) int) (*ReplicatedStore, error) {
	if r < 2 {
		return nil, fmt.Errorf("checkpoint: replicated store needs r >= 2 replicas (got %d)", r)
	}
	return &ReplicatedStore{shardSet{place: place, targets: memTargets(r, writeBPS, readBPS)}}, nil
}

// Save implements Store: the snapshot's encoding is written once, into
// the fragment of replica 0, and copied from there into one fragment per
// further replica (a 1-of-r fragment group from replica 0). Each replica
// write is charged the full snapshot cost, so aggregate traffic reflects
// the r× overhead.
func (st *ReplicatedStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) {
	return save(st, s, at)
}

// stage implements stager: the replicas are built and sealed here, before
// the turn; commit only writes them.
func (st *ReplicatedStore) stage(s *Snapshot) (staged, error) {
	segs, blobLen, err := snapshotSegments(s)
	if err != nil {
		return nil, err
	}
	bufs, payloads := st.newGroup(1, len(st.targets), blobLen, blobLen)
	stripe(payloads[:1], segs)
	for _, p := range payloads[1:] {
		copy(p, payloads[0])
	}
	return st.sealGroup(s, 0, s.CostBytes()+fragmentEnvelope, bufs), nil
}

// Load implements Store: replicas are probed one after another from the
// rank's home replica onward; the first one whose blob verifies wins. A
// failed probe's read time is charged before the next replica is tried,
// and every skipped replica counts as degraded. All r replicas unhealthy
// is a lost checkpoint (ok=false).
func (st *ReplicatedStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	r := len(st.targets)
	base := st.home(rank)
	cur := at
	for i := 0; i < r; i++ {
		idx := (base + i) % r
		fs, e, ok := st.read(idx, rank, seq, cur)
		if ok {
			if f, fok := parseFragment(fs.AppState); fok && f.Index == idx {
				if snap, err := DecodeSnapshot(f.Payload); err == nil {
					st.countLoad(int64(i))
					return snap, e, true
				}
			}
		}
		if e > cur {
			cur = e
		}
	}
	return nil, at, false
}

// Stats implements Store with logical Saves/Loads (see logicalStats).
func (st *ReplicatedStore) Stats() StoreStats { return st.logicalStats() }

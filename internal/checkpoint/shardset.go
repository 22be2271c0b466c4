package checkpoint

import (
	"sync"

	"hydee/internal/vtime"
)

// fragmentEnvelope is the modeled per-fragment metadata overhead (header,
// checksum, placement record) charged on top of the payload share.
const fragmentEnvelope = 64

// shardSet is the core the composite stores (ShardedStore, ECStore,
// ReplicatedStore) are layouts over: a fixed slice of independent storage
// targets, each with its own bandwidth-contention window, a static
// rank-to-target placement, the fault-injection hook, and the statistics.
// A layout adds only how a snapshot becomes target writes and the read
// policy (the DESIGN.md failure-semantics table).
//
// Determinism: every save is admitted in virtual-time order (the runtime
// brackets writes with Network.AwaitTurn) and placement and encoding are
// pure functions, so the per-target queues build up identically on every
// run.
type shardSet struct {
	// place maps a rank to its home target and may return any int (it is
	// reduced modulo the target count); nil places ranks round-robin.
	place   func(rank int) int
	targets []Store

	mu sync.Mutex
	// saves/loads count the redundant layouts' logical snapshot
	// operations (each is several target operations).
	saves, loads int64
	// degraded counts what successful loads had to route around — the
	// survived-shard-loss signal E6 reports.
	degraded int64
}

// memTargets builds n fresh in-memory targets of writeBPS/readBPS bytes
// per second each (zero disables the cost model).
func memTargets(n int, writeBPS, readBPS float64) []Store {
	targets := make([]Store, n)
	for i := range targets {
		targets[i] = NewMemStore(writeBPS, readBPS)
	}
	return targets
}

// home resolves the rank's home target: its only shard (sharded), the
// base of its fragment group (ec), or the replica its reads try first.
func (ss *shardSet) home(rank int) int {
	i := rank
	if ss.place != nil {
		i = ss.place(rank)
	}
	i %= len(ss.targets)
	if i < 0 {
		i += len(ss.targets)
	}
	return i
}

// NumShards reports the target count: shards, k+m fragment shards, or
// replicas (the fault-injection plane addresses them all as shards).
func (ss *shardSet) NumShards() int { return len(ss.targets) }

// swapShard replaces target i through wrap — the fault-injection hook
// (NewFaultyStore). Must be called before the store carries traffic.
func (ss *shardSet) swapShard(i int, wrap func(Store) Store) {
	ss.targets[i] = wrap(ss.targets[i])
}

// LatestSeq implements Store, delegating to the rank's home target
// (every target a save touches receives the same sequence).
func (ss *shardSet) LatestSeq(rank int) int {
	return ss.targets[ss.home(rank)].LatestSeq(rank)
}

// ShardStats reports per-target physical activity, indexed by target.
func (ss *shardSet) ShardStats() []StoreStats {
	out := make([]StoreStats, len(ss.targets))
	for i, t := range ss.targets {
		out[i] = t.Stats()
	}
	return out
}

// Stats implements Store with the targets' physical activity: counters
// sum, MaxQueue is the worst backlog any single target saw (the quantity
// E5 compares).
func (ss *shardSet) Stats() StoreStats {
	var agg StoreStats
	for _, t := range ss.targets {
		s := t.Stats()
		agg.Saves += s.Saves
		agg.SavedBytes += s.SavedBytes
		agg.Loads += s.Loads
		if s.MaxQueue > agg.MaxQueue {
			agg.MaxQueue = s.MaxQueue
		}
	}
	return agg
}

// logicalStats is Stats for the redundant layouts: Saves and Loads count
// snapshots, not fragments, while SavedBytes keeps the physical volume,
// so the redundancy overhead is visible in what E6 compares.
func (ss *shardSet) logicalStats() StoreStats {
	agg := ss.Stats()
	ss.mu.Lock()
	agg.Saves, agg.Loads = ss.saves, ss.loads
	ss.mu.Unlock()
	return agg
}

// DegradedLoads reports how much redundancy successful Loads consumed:
// reconstructions that probed past k fragments (ec), replicas skipped
// (replica); always zero for plain sharding.
func (ss *shardSet) DegradedLoads() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.degraded
}

// countLoad records one successful logical load and its degraded weight.
func (ss *shardSet) countLoad(degraded int64) {
	ss.mu.Lock()
	ss.loads++
	ss.degraded += degraded
	ss.mu.Unlock()
}

// writeGroup writes one snapshot's fragment group: piece i, wrapped in
// a self-verifying fragment of a k-of-len(pieces) code, goes to target
// (base+i) mod n charged cost modeled bytes. All writes are issued at
// `at` in parallel, so the save completes when the slowest target does.
func (ss *shardSet) writeGroup(s *Snapshot, at vtime.Time, base, k, blobLen int, cost int64, pieces [][]byte) (vtime.Time, error) {
	end := at
	for i, payload := range pieces {
		fs := &Snapshot{
			Rank:    s.Rank,
			Seq:     s.Seq,
			TakenVT: s.TakenVT,
			AppState: (&fragment{
				K: k, M: len(pieces) - k, Index: i,
				BlobLen: blobLen, Payload: payload,
			}).marshal(),
			ModelBytes: cost,
		}
		e, err := ss.targets[(base+i)%len(ss.targets)].Save(fs, at)
		if err != nil {
			return at, err
		}
		if e > end {
			end = e
		}
	}
	ss.mu.Lock()
	ss.saves++
	ss.mu.Unlock()
	return end, nil
}

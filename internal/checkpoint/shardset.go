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
// rank-to-target placement, each target's fault schedule (faulty.go), and
// the statistics. Every target write goes through write and every target
// read through read, which apply the faults. A layout adds only how a
// snapshot becomes target writes and the read policy (the DESIGN.md
// failure-semantics table).
//
// Determinism: every save is admitted in virtual-time order (the runtime
// brackets commits with Endpoint.FlushAwaitTurn), placement and encoding
// are pure functions, and a fault is a pure function of an operation's
// issue time, so the per-target queues build up identically on every run.
// Stages run in any order; they touch nothing but the spare list, and
// which recycled buffer a stage gets never shows: it is overwritten whole.
type shardSet struct {
	// place maps a rank to its home target and may return any int (it is
	// reduced modulo the target count); nil places ranks round-robin.
	place   func(rank int) int
	targets []Store

	mu sync.Mutex
	// saves/loads count the redundant layouts' logical snapshot
	// operations (each is several target operations).
	saves, loads int64
	// spare holds fragment buffers the targets gave back (see write), for
	// the next save to build its fragments in.
	spare [][]byte
	// degraded counts what successful loads had to route around — the
	// survived-shard-loss signal E6 reports.
	degraded int64
	// faults[i] is target i's fault schedule and fstats[i] what it
	// absorbed; both nil until NewFaultyStore adds a schedule.
	faults [][]ShardFault
	fstats []FaultStats
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
// replicas (a ShardFault addresses them all as shards).
func (ss *shardSet) NumShards() int { return len(ss.targets) }

// shards implements faultable.
func (ss *shardSet) shards() *shardSet { return ss }

// FaultStats implements FaultyStore: what each target's faults absorbed,
// indexed by target.
func (ss *shardSet) FaultStats() []FaultStats {
	out := make([]FaultStats, len(ss.targets))
	ss.mu.Lock()
	copy(out, ss.fstats)
	ss.mu.Unlock()
	return out
}

// fault evaluates target i's schedule at an operation issued at `at` — a
// pure function of `at`, which is what keeps injection deterministic —
// and counts a killed operation as a lost write or read.
func (ss *shardSet) fault(i int, at vtime.Time, write bool) (killed, corrupt bool, slow float64) {
	slow = 1
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.faults == nil {
		return false, false, 1
	}
	for _, f := range ss.faults[i] {
		if f.AtVT > at {
			continue
		}
		switch f.Kind {
		case FaultKill:
			killed = true
		case FaultCorrupt:
			corrupt = true
		case FaultDegrade:
			slow *= f.Factor
		}
	}
	switch {
	case killed && write:
		ss.fstats[i].LostWrites++
	case killed:
		ss.fstats[i].LostReads++
	}
	return killed, corrupt, slow
}

// write gives fs to target i at `at`, faults first. A killed target drops
// the write (counted, no error: a lost storage target fails silently, it
// does not abort the writer); a degraded one is charged Factor× the
// modeled cost through a shallow copy of fs. An in-memory target keeps fs
// as it is, no deep copy, so fs must be the package's own: a copy or a
// fragment. Any other target copies in its Save. spare is an AppState
// buffer the target no longer references — a generation fs overwrote or
// pruned, or fs's own if the write was dropped — nil if it has none; only
// a caller that built fs may reuse it.
func (ss *shardSet) write(i int, fs *Snapshot, at vtime.Time) (end vtime.Time, spare []byte, err error) {
	killed, _, slow := ss.fault(i, at, true)
	if killed {
		return at, fs.AppState, nil
	}
	if slow != 1 {
		cp := *fs
		cp.ModelBytes = int64(float64(fs.CostBytes()) * slow)
		fs = &cp
	}
	if m, ok := ss.targets[i].(*MemStore); ok {
		end, spare = m.keep(fs, at)
		return end, spare, nil
	}
	end, err = ss.targets[i].Save(fs, at)
	return end, nil, err
}

// read loads rank's snapshot seq from target i at `at`, faults applied: a
// killed target refuses the read, a corrupt one damages the returned
// snapshot (detectable only by the self-verifying layouts), a degraded
// one stretches the read duration. The damage lands on the private copy
// the target's Load returned (the Store contract), so what the target
// holds stays clean for a read issued before AtVT.
func (ss *shardSet) read(i, rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	killed, corrupt, slow := ss.fault(i, at, false)
	if killed {
		return nil, at, false
	}
	s, end, ok := ss.targets[i].Load(rank, seq, at)
	if !ok {
		return nil, end, false
	}
	if slow != 1 {
		end = at.Add(vtime.Duration(float64(end.Sub(at)) * slow))
	}
	if corrupt {
		if len(s.AppState) > 0 {
			s.AppState[0] ^= 0xA5
		} else {
			s.AppState = []byte{0xA5}
		}
		ss.mu.Lock()
		ss.fstats[i].CorruptReads++
		ss.mu.Unlock()
	}
	return s, end, true
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

// newGroup returns the buffers of an n-fragment group of a k-of-n code
// over a blobLen-byte blob, headers written, and the payloadLen-byte
// payload region of each for the layout to fill. Buffers come from the
// spare list when one is large enough; a fresh one carries a sixteenth of
// headroom so a rank whose snapshots grow slowly keeps fitting its
// recycled buffers.
func (ss *shardSet) newGroup(k, n, payloadLen, blobLen int) (bufs, payloads [][]byte) {
	size := fragmentLen(payloadLen)
	bufs, payloads = make([][]byte, n), make([][]byte, n)
	ss.mu.Lock()
	for i := range bufs {
		if last := len(ss.spare) - 1; last >= 0 {
			if b := ss.spare[last]; cap(b) >= size {
				bufs[i] = b[:size]
			}
			ss.spare[last] = nil
			ss.spare = ss.spare[:last]
		}
	}
	ss.mu.Unlock()
	for i, b := range bufs {
		if b == nil {
			b = make([]byte, size, size+size/16)
			bufs[i] = b
		}
		putFragmentHeader(b, k, n-k, i, blobLen)
		payloads[i] = b[fragHeaderLen : fragHeaderLen+payloadLen]
	}
	return bufs, payloads
}

// sealGroup seals the filled fragments of one snapshot into a staged
// save: fragment i is bound for target (base+i) mod n, charged cost
// modeled bytes. Only the fields a fragment snapshot carries are kept, so
// s is unreachable from the result.
func (ss *shardSet) sealGroup(s *Snapshot, base int, cost int64, bufs [][]byte) *groupSave {
	for _, b := range bufs {
		sealFragment(b)
	}
	return &groupSave{ss: ss, rank: s.Rank, seq: s.Seq, taken: s.TakenVT, base: base, cost: cost, bufs: bufs}
}

// groupSave is a redundant layout's staged save: sealed fragments that
// only have to be written.
type groupSave struct {
	ss        *shardSet
	rank, seq int
	taken     vtime.Time
	base      int
	cost      int64
	bufs      [][]byte
}

// commit writes the fragments through write, which keeps them without a
// further copy and hands back the buffers they displace. All writes are
// issued at `at` in parallel, so the save completes when the slowest
// target does.
func (g *groupSave) commit(at vtime.Time) (vtime.Time, error) {
	ss := g.ss
	end := at
	spares := make([][]byte, 0, len(g.bufs))
	for i, b := range g.bufs {
		fs := &Snapshot{Rank: g.rank, Seq: g.seq, TakenVT: g.taken, AppState: b, ModelBytes: g.cost}
		e, spare, err := ss.write((g.base+i)%len(ss.targets), fs, at)
		if err != nil {
			return at, err
		}
		if spare != nil {
			spares = append(spares, spare)
		}
		if e > end {
			end = e
		}
	}
	ss.mu.Lock()
	ss.saves++
	ss.spare = append(ss.spare, spares...)
	ss.mu.Unlock()
	return end, nil
}

// detached implements staged: the fragments are the package's own.
func (*groupSave) detached() bool { return true }

// discard returns the group's buffers to the spare list. Whatever a later
// save builds in them overwrites every byte: header, payload (striped,
// zero-filled past the blob, or computed as parity) and seal.
func (g *groupSave) discard() {
	g.ss.mu.Lock()
	g.ss.spare = append(g.ss.spare, g.bufs...)
	g.ss.mu.Unlock()
}

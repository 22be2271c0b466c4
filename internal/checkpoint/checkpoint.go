// Package checkpoint provides process snapshots and the stable-storage
// abstraction the rollback-recovery protocols save them to.
//
// A Snapshot is what Algorithm 1 line 21 saves: the process image (the
// application state), the protocol state (RPP table, message log, phase and
// date for HydEE), and — a consequence of eager message buffering — the
// messages held in the process mailbox that have not yet been delivered to
// the application.
//
// Stores model the bandwidth of the underlying storage system with a shared
// virtual-time contention window: checkpoints written concurrently queue
// behind each other, which reproduces the I/O-burst argument the paper makes
// against globally coordinated checkpointing (§VI) and enables the
// staggered-checkpoint experiment E5.
package checkpoint

import (
	"sync"

	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Snapshot is one process checkpoint.
type Snapshot struct {
	Rank int
	// Seq is the checkpoint sequence number (epoch) of this process.
	Seq int
	// TakenVT is the virtual time at capture.
	TakenVT vtime.Time
	// CkptCallIdx is the index of the cooperative checkpoint call that
	// produced this snapshot, so a restarted process resumes its schedule.
	CkptCallIdx int
	// CollSeq is the communicator's collective-operation counter, part of
	// the process image: a restarted process must tag re-executed
	// collectives exactly as the original execution did.
	CollSeq int64
	// AppState is the gob-encoded application state.
	AppState []byte
	// ProtState is the engine-encoded protocol state (opaque here).
	ProtState []byte
	// Mailbox holds the in-transit messages included in the checkpoint:
	// intra-cluster messages of the previous epoch plus all buffered
	// inter-cluster messages (see DESIGN.md deviation note 3).
	Mailbox []*transport.Msg
	// ModelBytes is the modeled size of the checkpoint for the storage
	// cost model; when zero the encoded size is used.
	ModelBytes int64
}

// EncodedSize reports the modeled encoded byte count of the snapshot. An
// in-transit message is costed at its modeled wire size (payload plus
// piggybacked protocol data) — Algorithm 1 line 21 includes in-transit
// bytes in the checkpoint volume — plus a fixed envelope overhead;
// len(m.Data) is only the (often much smaller) simulation payload and
// would understate E5's storage-bandwidth traffic.
func (s *Snapshot) EncodedSize() int64 {
	n := int64(len(s.AppState) + len(s.ProtState))
	for _, m := range s.Mailbox {
		n += int64(m.Wire()) + 64
	}
	return n
}

// CostBytes is the size used for storage timing.
func (s *Snapshot) CostBytes() int64 {
	if s.ModelBytes > 0 {
		return s.ModelBytes
	}
	return s.EncodedSize()
}

// Clone deep-copies the snapshot so later mutation of live messages cannot
// corrupt stable storage.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.AppState = append([]byte(nil), s.AppState...)
	c.ProtState = append([]byte(nil), s.ProtState...)
	c.Mailbox = make([]*transport.Msg, len(s.Mailbox))
	for i, m := range s.Mailbox {
		mm := *m
		mm.Data = append([]byte(nil), m.Data...)
		c.Mailbox[i] = &mm
	}
	return &c
}

// Store is stable storage for snapshots.
//
// Restart consistency: a coordinated checkpoint is only usable once every
// member of the coordination scope has completed it. A failure can land
// while some members have saved sequence N and others are still writing, so
// the runtime restores the whole scope from the *minimum* completed
// sequence; stores therefore retain a small history per rank, not just the
// latest snapshot.
//
// Ownership: the snapshot passed to Save, and every byte slice and
// message it points to, stays the caller's. A store copies what it keeps —
// exactly once — before Save returns, and never retains, recycles or
// pools the caller's buffers, so the caller may mutate or reuse them
// immediately (and may save one buffer again under a later sequence).
// Load returns a private copy the caller may mutate. Buffers the
// checkpoint package builds itself — the fragments of the redundant
// layouts — are the exception in the other direction: the package owns
// them, hands them to its in-memory targets without a further copy, and
// takes back the buffers of generations those targets prune (see
// fragmentTarget).
//
// Two phases (stage.go): the built-in in-memory stores copy what they
// keep before admission. Their Save is Stage (the copy, encoding, parity
// and seals, none of which depends on the issue time) followed by Commit
// (everything that does), and the runtime runs Stage before it waits for
// its turn. A third-party store needs nothing of this: Stage falls back
// to calling its Save under the turn.
type Store interface {
	// Save persists the snapshot and returns the virtual time at which the
	// write completes, given it was issued at the process clock `at`.
	Save(s *Snapshot, at vtime.Time) (vtime.Time, error)
	// LatestSeq reports the newest snapshot sequence of the rank's
	// current save streak (0 = none). A save at or below the previous
	// latest restarts the streak — that is how a store pinned across
	// several runs reports the current run, not an earlier one.
	LatestSeq(rank int) int
	// Load returns the snapshot of rank with the given sequence. The
	// returned time is when the read completes if issued at `at`.
	Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool)
	// Stats reports aggregate store activity.
	Stats() StoreStats
}

// StoreStats aggregates store activity.
type StoreStats struct {
	Saves      int64
	SavedBytes int64
	Loads      int64
	// MaxQueue is the largest virtual-time backlog observed at a save,
	// i.e. how long a checkpoint had to wait for the shared link.
	MaxQueue vtime.Duration
}

// historyKeep is how many snapshot generations a store retains per rank.
// Two suffice for the min-sequence restore rule (a member can lag its scope
// by at most one checkpoint); three adds slack for diagnostics.
const historyKeep = 3

// MemStore is an in-memory stable store with a shared-bandwidth model.
// The zero value is unusable; use NewMemStore.
type MemStore struct {
	mu sync.Mutex
	// gens[rank] holds the retained generations in ascending Seq order.
	gens map[int][]*Snapshot
	// latest[rank] is the newest completed sequence.
	latest map[int]int
	// bytesPerSec is the aggregate write bandwidth shared by all writers;
	// zero disables timing.
	bytesPerSec float64
	readBPS     float64
	busyUntil   vtime.Time
	stats       StoreStats
}

// NewMemStore builds a store with the given aggregate write and read
// bandwidths in bytes/second (zero disables the cost model).
func NewMemStore(writeBPS, readBPS float64) *MemStore {
	return &MemStore{
		gens:        make(map[int][]*Snapshot),
		latest:      make(map[int]int),
		bytesPerSec: writeBPS,
		readBPS:     readBPS,
	}
}

// Save implements Store: the store keeps a deep copy. Concurrent saves
// serialize on the shared link: a save issued at time t starts at
// max(t, busyUntil), reproducing I/O bursts.
func (st *MemStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(st, s, at) }

// stage implements stager: the deep copy is taken before the turn, and
// only keeping it is left to commit.
func (st *MemStore) stage(s *Snapshot) (staged, error) { return keptCopy{st, s.Clone(), true}, nil }

// saveOwned implements fragmentTarget: fs is kept as it is, and the
// AppState buffer of a generation it displaces goes back to the caller.
func (st *MemStore) saveOwned(fs *Snapshot, at vtime.Time) (vtime.Time, []byte, error) {
	end, spare := st.keep(fs, at)
	return end, spare, nil
}

// keep stores cp, which the store owns from here on, and prunes. spare
// is the AppState buffer of a generation that left the store — the one
// cp overwrote or the last one pruned — and nobody else's: every stored
// snapshot is a copy or a hand-off, and Load copies under the lock.
func (st *MemStore) keep(cp *Snapshot, at vtime.Time) (end vtime.Time, spare []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	gen := st.gens[cp.Rank]
	i := 0
	for i < len(gen) && gen[i].Seq < cp.Seq {
		i++
	}
	if i < len(gen) && gen[i].Seq == cp.Seq {
		spare = gen[i].AppState
		gen[i] = cp
	} else {
		gen = append(gen, nil)
		copy(gen[i+1:], gen[i:])
		gen[i] = cp
	}
	// latest tracks the newest sequence of the current save streak. A
	// rank's saves are strictly increasing within one run, so a save at or
	// below the recorded latest means the store is being reused by a new
	// run whose sequence space restarted (engine WithStore pinning); the
	// streak resets with it, or the GC below would prune the new run's
	// snapshots against the old run's high-water mark. The old run's
	// higher-sequence leftovers linger unpruned, which is harmless: the
	// runtime only restores sequences the current run completed.
	st.latest[cp.Rank] = cp.Seq
	// Generations are sorted, so the prunable ones lead the slice.
	drop := 0
	for drop < len(gen) && gen[drop].Seq <= cp.Seq-historyKeep {
		spare = gen[drop].AppState
		drop++
	}
	n := copy(gen, gen[drop:])
	clear(gen[n:])
	st.gens[cp.Rank] = gen[:n]
	st.stats.Saves++
	st.stats.SavedBytes += cp.CostBytes()
	if st.bytesPerSec <= 0 {
		return at, spare
	}
	start := at
	if st.busyUntil > start {
		if q := st.busyUntil.Sub(at); q > st.stats.MaxQueue {
			st.stats.MaxQueue = q
		}
		start = st.busyUntil
	}
	dur := vtime.Duration(float64(cp.CostBytes()) / st.bytesPerSec * 1e9)
	end = start.Add(dur)
	st.busyUntil = end
	return end, spare
}

// LatestSeq implements Store.
func (st *MemStore) LatestSeq(rank int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.latest[rank]
}

// Load implements Store.
func (st *MemStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var s *Snapshot
	for _, g := range st.gens[rank] {
		if g.Seq == seq {
			s = g
			break
		}
	}
	if s == nil {
		return nil, at, false
	}
	st.stats.Loads++
	end := at
	if st.readBPS > 0 {
		end = at.Add(vtime.Duration(float64(s.CostBytes()) / st.readBPS * 1e9))
	}
	return s.Clone(), end, true
}

// Stats implements Store.
func (st *MemStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

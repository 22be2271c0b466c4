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
	// ProtState is the engine-encoded protocol state (opaque here), set
	// by the engine or encoded from what its DeferProtState call returns.
	ProtState []byte
	// Mailbox holds the in-transit messages included in the checkpoint:
	// intra-cluster messages of the previous epoch plus all buffered
	// inter-cluster messages (see DESIGN.md deviation note 3).
	Mailbox []*transport.Msg
	// ModelBytes is the modeled size of the checkpoint for the storage
	// cost model; when zero the encoded size is used.
	ModelBytes int64

	// protState awaits BorrowProtState; stores, codecs, exporters and
	// Clone never see it.
	protState func() any
}

// DeferProtState leaves state for the runtime to call and gob-encode into
// ProtState, off the process's task and before the snapshot's size is
// taken. It runs then, and what it returns is read, not copied, so
// neither may change until the save is staged.
func (s *Snapshot) DeferProtState(state func() any) { s.protState = state }

// BorrowProtState encodes the DeferProtState value, if any, into
// ProtState in a buffer borrowed with BorrowState and forgets the value;
// release gives the buffer back.
func (s *Snapshot) BorrowProtState() (release func(), err error) {
	state := s.protState
	if state == nil {
		return func() {}, nil
	}
	s.protState = nil
	s.ProtState, release, err = BorrowState(state())
	return release, err
}

// EncodedSize reports the modeled encoded byte count of the snapshot:
// the two state blobs plus MailboxCost of every in-transit message.
func (s *Snapshot) EncodedSize() int64 {
	n := int64(len(s.AppState) + len(s.ProtState))
	for _, m := range s.Mailbox {
		n += MailboxCost(m)
	}
	return n
}

// MailboxCost is the modeled storage cost of one in-transit message a
// checkpoint holds: its modeled wire size (payload plus piggybacked
// protocol data) — Algorithm 1 line 21 includes in-transit bytes in the
// checkpoint volume — plus a fixed envelope overhead. len(m.Data) is only
// the (often much smaller) simulation payload and would understate E5's
// storage-bandwidth traffic.
func MailboxCost(m *transport.Msg) int64 { return int64(m.Wire()) + 64 }

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
	c.protState = nil
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
// A store only stores: which sequence a restart loads is the runtime's
// decision, made from the saves it completed itself. A failure can land
// while some members of a coordination scope have saved sequence N and
// others are still writing it, so the runtime restores the whole scope
// from the *minimum* completed sequence; stores therefore retain a small
// history per rank, not just the latest snapshot.
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
// shardSet.write).
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

// link is the shared-bandwidth model of one storage target, and its
// activity counters. Saves queue behind each other in virtual time: one
// issued at t starts at max(t, busyUntil), which reproduces I/O bursts.
// Reads are timed at the read bandwidth; a zero bandwidth makes its
// direction free. The owning store serializes the calls.
type link struct {
	writeBPS, readBPS float64
	busyUntil         vtime.Time
	stats             StoreStats
}

// write admits a save of cost modeled bytes issued at `at` and returns
// the virtual time it completes.
func (l *link) write(cost int64, at vtime.Time) vtime.Time {
	l.stats.Saves++
	l.stats.SavedBytes += cost
	if l.writeBPS <= 0 {
		return at
	}
	start := at
	if l.busyUntil > at {
		l.stats.MaxQueue = max(l.stats.MaxQueue, l.busyUntil.Sub(at))
		start = l.busyUntil
	}
	l.busyUntil = start.Add(vtime.Duration(float64(cost) / l.writeBPS * 1e9))
	return l.busyUntil
}

// read counts a load of cost modeled bytes issued at `at` and returns the
// virtual time it completes.
func (l *link) read(cost int64, at vtime.Time) vtime.Time {
	l.stats.Loads++
	if l.readBPS <= 0 {
		return at
	}
	return at.Add(vtime.Duration(float64(cost) / l.readBPS * 1e9))
}

// MemStore is an in-memory stable store over one shared link.
// The zero value is unusable; use NewMemStore.
type MemStore struct {
	mu sync.Mutex
	// gens[rank] holds the retained generations in ascending Seq order.
	gens map[int][]*Snapshot
	link link
}

// NewMemStore builds a store with the given aggregate write and read
// bandwidths in bytes/second (zero disables the cost model).
func NewMemStore(writeBPS, readBPS float64) *MemStore {
	return &MemStore{gens: make(map[int][]*Snapshot), link: link{writeBPS: writeBPS, readBPS: readBPS}}
}

// Save implements Store: the store keeps a deep copy. Concurrent saves
// serialize on the shared link.
func (st *MemStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(st, s, at) }

// stage implements stager: the deep copy is taken before the turn, and
// only keeping it is left to commit.
func (st *MemStore) stage(s *Snapshot) (staged, error) { return keptCopy{st, s.Clone()}, nil }

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
	// Generations are sorted, so the prunable ones lead the slice. Pruning
	// is relative to cp, not to a high-water mark, so a store reused by a
	// run whose sequences restart keeps that run's generations; an earlier
	// run's higher leftovers linger, and nothing restores them.
	drop := 0
	for drop < len(gen) && gen[drop].Seq <= cp.Seq-historyKeep {
		spare = gen[drop].AppState
		drop++
	}
	n := copy(gen, gen[drop:])
	clear(gen[n:])
	st.gens[cp.Rank] = gen[:n]
	return st.link.write(cp.CostBytes(), at), spare
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
	return s.Clone(), st.link.read(s.CostBytes(), at), true
}

// Stats implements Store.
func (st *MemStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.link.stats
}

package checkpoint

import (
	"fmt"
	"sync"

	"hydee/internal/vtime"
)

// Storage fault injection: FaultyStore makes shards of a checkpoint
// store fail at a scheduled virtual time, the storage-side counterpart
// of rank kills. A fault is a pure predicate on the virtual time a store
// operation is issued at — and the runtime already orders every save
// through Endpoint.FlushAwaitTurn and issues restore loads at the recovery
// round's deterministic start time — so fault activation is totally
// ordered against all other store traffic on the same virtual-time event
// plane as rank failures, and faulted runs stay byte-reproducible.

// FaultKind selects what happens to a faulted shard.
type FaultKind int

const (
	// FaultKill makes the shard unavailable from AtVT on: writes issued
	// at or after AtVT are silently dropped, reads fail. Data written
	// before the kill is NOT recoverable through this shard — the model
	// is a lost storage target, not a transient outage.
	FaultKill FaultKind = iota
	// FaultCorrupt flips bytes in every snapshot read from the shard at
	// or after AtVT. Self-verifying backends (ec, replica) detect the
	// damage and treat the shard as lost; plain backends return the
	// corrupted snapshot undetected (see the DESIGN.md failure-semantics
	// table).
	FaultCorrupt
	// FaultDegrade multiplies the shard's modeled write cost and read
	// duration by Factor from AtVT on — a slow disk, not a dead one.
	// The write-cost inflation persists in the stored snapshot's modeled
	// size (that is what keeps the shard's contention window honest), so
	// a snapshot both written and read through a degraded shard pays the
	// factor on each pass: a stress knob, not a calibrated disk model.
	FaultDegrade
)

// String names the fault kind for formatted sweep output.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultCorrupt:
		return "corrupt"
	case FaultDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// ShardFault schedules one fault on one shard.
type ShardFault struct {
	// Shard indexes the target: a shard of ShardedStore/ECStore, a
	// replica of ReplicatedStore, or 0 for a non-composite store (the
	// whole store is one shard).
	Shard int
	// AtVT is the virtual time the fault takes effect; operations issued
	// at or after it see the fault. Must be positive.
	AtVT vtime.Time
	// Kind selects kill, corrupt or degrade.
	Kind FaultKind
	// Factor is the slowdown multiplier of FaultDegrade (> 1); ignored
	// by the other kinds.
	Factor float64
}

// FaultStats counts the operations one faulted shard absorbed.
type FaultStats struct {
	// LostWrites is saves dropped by a killed shard.
	LostWrites int64
	// LostReads is loads refused by a killed shard.
	LostReads int64
	// CorruptReads is loads that returned damaged snapshots.
	CorruptReads int64
}

// FaultyStore wraps a store so scheduled ShardFaults apply to its
// shards. For composite inners (ShardedStore, ECStore, ReplicatedStore)
// each fault targets one shard/replica; any other store is treated as a
// single shard 0. The wrapper must be installed before the store carries
// traffic (it rewires the composite's shard slots at construction).
type FaultyStore struct {
	inner  Store
	shards []*faultyShard
}

// shardSwapper is implemented by composite stores whose shard backends
// the fault plane can rewire.
type shardSwapper interface {
	NumShards() int
	swapShard(i int, wrap func(Store) Store)
}

// NewFaultyStore wraps inner with the given fault schedule. Shard
// indices are validated against the inner store's shard count, AtVT
// must be positive, and FaultDegrade needs Factor > 1.
func NewFaultyStore(inner Store, faults ...ShardFault) (*FaultyStore, error) {
	n := 1
	sw, composite := inner.(shardSwapper)
	if composite {
		n = sw.NumShards()
	}
	for _, f := range faults {
		if f.Shard < 0 || f.Shard >= n {
			return nil, fmt.Errorf("checkpoint: shard fault targets shard %d of a %d-shard store", f.Shard, n)
		}
		if f.AtVT <= 0 {
			return nil, fmt.Errorf("checkpoint: shard fault on shard %d: virtual time %v must be positive", f.Shard, f.AtVT)
		}
		switch f.Kind {
		case FaultKill, FaultCorrupt:
		case FaultDegrade:
			if f.Factor <= 1 {
				return nil, fmt.Errorf("checkpoint: degrade fault on shard %d: factor %g must be > 1", f.Shard, f.Factor)
			}
		default:
			return nil, fmt.Errorf("checkpoint: unknown fault kind %v", f.Kind)
		}
	}
	st := &FaultyStore{shards: make([]*faultyShard, n)}
	wrap := func(i int) func(Store) Store {
		return func(s Store) Store {
			sh := &faultyShard{inner: s}
			for _, f := range faults {
				if f.Shard == i {
					sh.faults = append(sh.faults, f)
				}
			}
			st.shards[i] = sh
			return sh
		}
	}
	if composite {
		for i := 0; i < n; i++ {
			sw.swapShard(i, wrap(i))
		}
		st.inner = inner
	} else {
		st.inner = wrap(0)(inner)
	}
	return st, nil
}

// Save implements Store.
func (st *FaultyStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(st, s, at) }

// stage implements stager with the inner store's stage: the faults are
// write admission, so they act in the shards' commits.
func (st *FaultyStore) stage(s *Snapshot) (staged, error) { return stageOn(st.inner, s) }

// Load implements Store.
func (st *FaultyStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	return st.inner.Load(rank, seq, at)
}

// Stats implements Store, delegating to the wrapped store.
func (st *FaultyStore) Stats() StoreStats { return st.inner.Stats() }

// FaultStats reports per-shard fault activity, indexed like the fault
// schedule's Shard field.
func (st *FaultyStore) FaultStats() []FaultStats {
	out := make([]FaultStats, len(st.shards))
	for i, sh := range st.shards {
		out[i] = sh.statsSnapshot()
	}
	return out
}

// faultyShard applies one shard's fault schedule around an inner store.
type faultyShard struct {
	inner  Store
	faults []ShardFault

	mu    sync.Mutex
	stats FaultStats
}

// mode evaluates the fault schedule at the operation's issue time — a
// pure function of `at`, which is what keeps injection deterministic.
func (sh *faultyShard) mode(at vtime.Time) (killed, corrupt bool, slow float64) {
	slow = 1
	for _, f := range sh.faults {
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
	return killed, corrupt, slow
}

// admit applies the write-side faults to a save issued at `at`: a killed
// shard drops the write (counted, no error — a lost storage target
// fails silently, it does not abort the writer), a degraded shard
// charges Factor× the modeled cost through a shallow copy of s.
func (sh *faultyShard) admit(s *Snapshot, at vtime.Time) (admitted *Snapshot, dropped bool) {
	killed, _, slow := sh.mode(at)
	if killed {
		sh.mu.Lock()
		sh.stats.LostWrites++
		sh.mu.Unlock()
		return s, true
	}
	if slow != 1 {
		cp := *s
		cp.ModelBytes = int64(float64(s.CostBytes()) * slow)
		s = &cp
	}
	return s, false
}

// Save implements Store with the write-side faults of admit.
func (sh *faultyShard) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) { return save(sh, s, at) }

// stage implements stager. Over an in-memory inner the copy it keeps is
// taken here, before the turn, and commit hands it over through
// saveOwned, faults first. An inner without the hand-off (a FileStore)
// copies in its own Save, so s itself goes to commit: one copy, as
// before staging.
func (sh *faultyShard) stage(s *Snapshot) (staged, error) {
	_, copied := sh.inner.(fragmentTarget)
	if copied {
		s = s.Clone()
	}
	return keptCopy{sh, s, copied}, nil
}

// saveOwned implements fragmentTarget with the same faults; a dropped
// fragment's buffer is free again at once.
func (sh *faultyShard) saveOwned(fs *Snapshot, at vtime.Time) (vtime.Time, []byte, error) {
	fs, dropped := sh.admit(fs, at)
	if dropped {
		return at, fs.AppState, nil
	}
	return handOff(sh.inner, fs, at)
}

// Load implements Store: killed shards refuse the read, corrupt shards
// damage the returned snapshot (detectable only by self-verifying
// backends), degraded shards stretch the read duration. The damage lands
// on the private copy the inner Load returned (the Store contract): the
// copy precedes the flip, so what the shard holds stays clean for a read
// issued before AtVT.
func (sh *faultyShard) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	killed, corrupt, slow := sh.mode(at)
	if killed {
		sh.mu.Lock()
		sh.stats.LostReads++
		sh.mu.Unlock()
		return nil, at, false
	}
	s, end, ok := sh.inner.Load(rank, seq, at)
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
		sh.mu.Lock()
		sh.stats.CorruptReads++
		sh.mu.Unlock()
	}
	return s, end, true
}

// Stats implements Store.
func (sh *faultyShard) Stats() StoreStats { return sh.inner.Stats() }

func (sh *faultyShard) statsSnapshot() FaultStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

package checkpoint

import (
	"fmt"

	"hydee/internal/vtime"
)

// Storage fault injection: NewFaultyStore makes shards of a checkpoint
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

// FaultyStore is a store carrying a shard-fault schedule: a shard-set
// layout (sharded, ec, replica) whose targets apply their faults in the
// layout's one write path and one read path (shardset.go).
type FaultyStore interface {
	Store
	// FaultStats reports per-shard fault activity, indexed like the
	// fault schedule's Shard field.
	FaultStats() []FaultStats
}

// faultable is a shard-set layout, which carries its targets' faults.
type faultable interface {
	FaultyStore
	shards() *shardSet
}

// NewFaultyStore adds the fault schedule to inner's shards, in place, and
// returns inner: shards of a sharded or ec store, replicas of a
// replicated store. Any other store becomes the one shard 0 of a
// NewShardedOver(nil, inner) layout, which is returned. Faults added by
// several calls apply together. Shard indices are validated against the
// shard count, AtVT must be positive, and FaultDegrade needs Factor > 1.
// Add faults before the store carries traffic.
func NewFaultyStore(inner Store, faults ...ShardFault) (FaultyStore, error) {
	st, ok := inner.(faultable)
	if !ok {
		st = NewShardedOver(nil, inner)
	}
	ss := st.shards()
	n := len(ss.targets)
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
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.faults == nil {
		ss.faults, ss.fstats = make([][]ShardFault, n), make([]FaultStats, n)
	}
	for _, f := range faults {
		ss.faults[f.Shard] = append(ss.faults[f.Shard], f)
	}
	return st, nil
}

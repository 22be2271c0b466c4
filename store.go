package hydee

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
)

// Stable-storage extension surface. Store is the contract checkpoint
// backends implement; a third-party implementation plugs in by value,
// through WithStore (one pinned instance) or ExperimentSpec.NewStore (a
// fresh store per run). Custom stores carry determinism obligations —
// the runtime admits saves in virtual-time order, and a store's reported
// completion times must be a pure function of that admission order; see
// DESIGN.md "Extension points".
type (
	// Store is stable storage for checkpoints: Save/Load with modeled
	// completion times and aggregate Stats. Which checkpoint a restart
	// loads is the runtime's decision, not the store's.
	//
	// Ownership: the snapshot passed to Save, with every byte slice and
	// message it points to, stays the caller's. A store copies what it
	// keeps — once — before Save returns and never retains, recycles or
	// pools the caller's buffers, so the caller may reuse them at once;
	// Load returns a private copy the caller may mutate. (The built-in
	// redundant stores recycle only buffers they built themselves; see
	// DESIGN.md "Checkpoint redundancy", Data path.)
	//
	// The built-in in-memory stores copy what they keep before
	// admission: their Save is a stage (copy, encoding, parity, seals),
	// which the runtime runs before it waits for its virtual-time turn,
	// followed by a commit under it. A custom store is unaffected: its
	// Save runs whole under the turn, as it always has.
	Store = checkpoint.Store
	// Snapshot is one process checkpoint (process image, protocol
	// state, buffered in-transit messages), with accessors EncodedSize,
	// CostBytes and Clone.
	Snapshot = checkpoint.Snapshot
	// StoreStats aggregates store activity (saves, bytes, loads, worst
	// virtual-time write backlog).
	StoreStats = checkpoint.StoreStats
)

// StoreOptions is what a store spec resolves to: ParseStoreSpec returns
// the geometry its "<name>[:<geometry>]" implies, and StoreSpec.Probe
// adds the spec's bandwidth and directory. StoreSpec is how a caller
// picks a store; these options only report what it picked.
type StoreOptions struct {
	// BPS models storage write and read bandwidth in bytes/second:
	// aggregate for "mem" and "file", per shard for "sharded", "ec" and
	// "replica". 0 means free (untimed) storage; it is never negative
	// or non-finite.
	BPS float64
	// Shards is the shard count of a "<name>:<n>" spec (0 when the spec
	// gives none). For "ec" it is the data-shard count k of the k+m
	// geometry.
	Shards int
	// Parity is the parity-shard count m of an "ec" store (k = Shards);
	// the store spreads k+m fragment shards and survives any m losses.
	// Zero everywhere else.
	Parity int
	// Replicas is the copy count r of a "replica" store (r >= 2). Zero
	// everywhere else.
	Replicas int
	// Dir is the snapshot directory of file-backed stores.
	Dir string
}

// storeBackend is one store-table entry: its constructor and what it
// accepts of a parsed spec. The rules are data, not code, so a spec is
// checked without building anything (a directory-backed store creates
// its directory when built). build's place maps a rank to its target —
// reduced modulo the target count (Shards, k+m, or r) — and for "ec"
// selects the base shard of the rank's fragment group; nil means
// round-robin.
type storeBackend struct {
	name      string // canonical name, for refusals
	unsharded bool   // refuses "<name>:<n>" with n > 1
	needsDir  bool   // file-backed only
	memOnly   bool   // refuses a directory
	build     func(o StoreOptions, place func(rank int) int) (Store, error)
}

// validate checks resolved options against the backend. A negative or
// non-finite bandwidth has no meaning, and none may silently stand for
// free storage.
func (b storeBackend) validate(o StoreOptions) error {
	switch {
	case o.BPS < 0 || math.IsNaN(o.BPS) || math.IsInf(o.BPS, 0):
		return fmt.Errorf("store bandwidth must be finite and >= 0 (got %g B/s)", o.BPS)
	case b.unsharded && o.Shards > 1:
		return fmt.Errorf(`store %q does not shard (got %d shards); use "sharded:%d"`, b.name, o.Shards, o.Shards)
	case b.needsDir && o.Dir == "":
		return fmt.Errorf("store %q needs a directory (store_dir, -store-dir)", b.name)
	case b.memOnly && o.Dir != "":
		return fmt.Errorf("store %q is memory-backed (got directory %q)", b.name, o.Dir)
	}
	return nil
}

// stores is the store table StoreSpec selects over.
var stores = nameTable[storeBackend]{kind: "checkpoint store",
	entries: map[string]storeBackend{
		"mem": {name: "mem", unsharded: true,
			build: func(o StoreOptions, _ func(int) int) (Store, error) {
				return checkpoint.NewMemStore(o.BPS, o.BPS), nil
			},
		},
		"file": {name: "file", unsharded: true, needsDir: true,
			build: func(o StoreOptions, _ func(int) int) (Store, error) {
				return checkpoint.NewFileStore(o.Dir, o.BPS, o.BPS)
			},
		},
		"sharded": {name: "sharded",
			build: func(o StoreOptions, place func(int) int) (Store, error) {
				if o.Dir != "" {
					return checkpoint.NewShardedFileStore(o.Dir, o.Shards, o.BPS, o.BPS, place)
				}
				return checkpoint.NewShardedStore(o.Shards, o.BPS, o.BPS, place), nil
			},
		},
		"ec": {name: "ec", memOnly: true,
			build: func(o StoreOptions, place func(int) int) (Store, error) {
				return checkpoint.NewECStore(o.Shards, o.Parity, o.BPS, o.BPS, place)
			},
		},
		"replica": {name: "replica", memOnly: true,
			build: func(o StoreOptions, place func(int) int) (Store, error) {
				return checkpoint.NewReplicatedStore(o.Replicas, o.BPS, o.BPS, place)
			},
		},
	},
	aliasOf: map[string]string{"memory": "mem", "replicated": "replica"},
}

// NewMemStore builds an in-memory store with a shared write/read
// bandwidth model (zero disables timing) — the default backend.
func NewMemStore(writeBPS, readBPS float64) Store {
	return checkpoint.NewMemStore(writeBPS, readBPS)
}

// NewShardedStore builds a store of n independent in-memory shards, each
// with its own bandwidth-contention window: checkpoints on different
// shards never queue behind each other. place maps rank to shard (nil =
// round-robin); use ClusterPlacement to give each cluster its own
// storage target.
func NewShardedStore(n int, writeBPS, readBPS float64, place func(rank int) int) Store {
	return checkpoint.NewShardedStore(n, writeBPS, readBPS, place)
}

// NewECStore builds an erasure-coded store: each snapshot is split into
// k data + m parity fragments spread over k+m independent in-memory
// shards (one bandwidth-contention window each), and restored from any k
// surviving fragments — m arbitrary shard losses cost no data, for an
// (k+m)/k× storage overhead instead of replication's r×. place selects
// the base shard of a rank's fragment group (nil = round-robin by rank);
// use ClusterPlacement so fragment groups start on their cluster's
// storage target. Also reachable as StoreSpec{Spec: "ec:k+m"} and
// `-store ec:k+m`.
func NewECStore(k, m int, writeBPS, readBPS float64, place func(rank int) int) (Store, error) {
	return checkpoint.NewECStore(k, m, writeBPS, readBPS, place)
}

// NewReplicatedStore builds an r-way replicated store (r >= 2): every
// snapshot is written in full to all r in-memory replicas and read back
// from the first healthy one, surviving up to r-1 replica losses at r×
// storage cost. place selects a rank's home (first-probed) replica; nil
// is round-robin. Also reachable as StoreSpec{Spec: "replica:r"} and
// `-store replica:r`.
func NewReplicatedStore(r int, writeBPS, readBPS float64, place func(rank int) int) (Store, error) {
	return checkpoint.NewReplicatedStore(r, writeBPS, readBPS, place)
}

// Storage fault injection: schedule shard kills, corruption or slowdowns
// at a virtual time, ordered on the same virtual-time event plane as
// rank failures — so faulted runs stay byte-reproducible.
type (
	// ShardFault schedules one fault (kill, corrupt, degrade) on one
	// shard of a composite store at a virtual time.
	ShardFault = checkpoint.ShardFault
	// FaultKind selects what a ShardFault does: FaultKill, FaultCorrupt
	// or FaultDegrade.
	FaultKind = checkpoint.FaultKind
	// FaultStats counts the operations one faulted shard absorbed.
	FaultStats = checkpoint.FaultStats
	// FaultyStore is an interface: a Store carrying a shard-fault
	// schedule, whose FaultStats method reports per-shard fault
	// activity.
	FaultyStore = checkpoint.FaultyStore
)

// Fault kinds for ShardFault.Kind.
const (
	// FaultKill makes the shard unavailable from AtVT on (writes
	// dropped, reads refused).
	FaultKill = checkpoint.FaultKill
	// FaultCorrupt damages every snapshot read from the shard from AtVT
	// on; self-verifying backends (ec, replica) detect and skip it.
	FaultCorrupt = checkpoint.FaultCorrupt
	// FaultDegrade multiplies the shard's modeled write cost and read
	// duration by ShardFault.Factor from AtVT on.
	FaultDegrade = checkpoint.FaultDegrade
)

// NewFaultyStore adds the scheduled ShardFaults to inner's shards, in
// place, and returns inner: shards of a sharded/ec store, replicas of a
// replicated store. Any other store becomes shard 0 of a one-shard
// sharded store, which is returned. Faults added by several calls apply
// together. Add them before the store carries traffic. Fault activation
// is a pure predicate on each operation's virtual issue time, so
// injected failures are totally ordered against all other store traffic
// and runs stay byte-reproducible.
func NewFaultyStore(inner Store, faults ...ShardFault) (FaultyStore, error) {
	return checkpoint.NewFaultyStore(inner, faults...)
}

// ClusterPlacement places each rank on the shard of its cluster (cluster
// id modulo shards): the clusters that checkpoint together — and would
// otherwise burst on one shared link — land on distinct storage targets.
func ClusterPlacement(t *Topology, shards int) func(rank int) int {
	return rollback.ClusterPlacement(t, shards)
}

// StoreSpecForms documents the -store spec grammar ParseStoreSpec
// accepts, for flag help and error messages.
const StoreSpecForms = `"<name>", "<name>:<shards>" (sharded:6), "ec:<k>+<m>" (ec:4+2), "replica:<r>" (replica:3)`

// StoreSpecError reports a -store spec that cannot select a store: one
// ParseStoreSpec rejects as malformed or out of range, or one StoreSpec
// cannot resolve, naming no known store or options its store refuses.
// Its message lists the accepted forms and the store names, canonical
// first, aliases after.
type StoreSpecError struct {
	Spec   string // the spec as given
	Reason string // what is wrong with it
}

func (e *StoreSpecError) Error() string {
	return fmt.Sprintf("hydee: store spec %q: %s (forms: %s; stores: %s)",
		e.Spec, e.Reason, StoreSpecForms, stores.have())
}

// maxStoreShards bounds every geometry a spec can ask for: the shard
// count of a Reed–Solomon code over GF(2^8), and far more targets than
// any run here places checkpoints on.
const maxStoreShards = 256

// ParseStoreSpec parses a -store flag value into the store name and the
// StoreOptions geometry it implies:
//
//	"mem"          → ("mem", {})
//	"sharded:6"    → ("sharded", {Shards: 6})
//	"ec:4+2"       → ("ec", {Shards: 4, Parity: 2})
//	"replica:3"    → ("replica", {Replicas: 3})
//
// Geometry is validated eagerly — ec needs k >= 1 data and m >= 1
// parity shards with k+m <= 256, replica 2 to 256 copies, sharded 1 to
// 256 shards — so a bad spec fails at flag-parse time with a
// *StoreSpecError instead of deep in run setup. StoreSpec layers its
// bandwidth and directory onto the returned options, and the placement
// its run's topology implies.
func ParseStoreSpec(spec string) (name string, opts StoreOptions, err error) {
	bad := func(format string, args ...any) (string, StoreOptions, error) {
		return "", StoreOptions{}, &StoreSpecError{Spec: spec, Reason: fmt.Sprintf(format, args...)}
	}
	name, arg, hasArg := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	arg = strings.TrimSpace(arg)
	if name == "" {
		return bad("empty store name")
	}
	switch strings.ToLower(name) {
	case "ec":
		if !hasArg || arg == "" {
			return bad(`"ec" needs a geometry: ec:<k>+<m>`)
		}
		ks, ms, hasPlus := strings.Cut(arg, "+")
		if !hasPlus {
			return bad(`"ec" geometry is <data>+<parity>, e.g. ec:4+2`)
		}
		k, kerr := strconv.Atoi(strings.TrimSpace(ks))
		m, merr := strconv.Atoi(strings.TrimSpace(ms))
		if kerr != nil || merr != nil || k < 1 || m < 1 {
			return bad("ec needs k >= 1 data and m >= 1 parity shards")
		}
		if k+m > maxStoreShards {
			return bad("ec supports at most %d shards total, got %d+%d", maxStoreShards, k, m)
		}
		return name, StoreOptions{Shards: k, Parity: m}, nil
	case "replica", "replicated":
		if !hasArg || arg == "" {
			return bad(`"replica" needs a copy count: replica:<r>`)
		}
		r, rerr := strconv.Atoi(arg)
		if rerr != nil || r < 2 {
			return bad("replica needs r >= 2 copies (one copy is just a slower store)")
		}
		if r > maxStoreShards {
			return bad("replica supports at most %d copies, got %d", maxStoreShards, r)
		}
		return name, StoreOptions{Replicas: r}, nil
	}
	if !hasArg {
		return name, StoreOptions{}, nil
	}
	n, nerr := strconv.Atoi(arg)
	if nerr != nil || n < 1 {
		return bad("shard count must be a positive integer")
	}
	if n > maxStoreShards {
		return bad("at most %d shards, got %d", maxStoreShards, n)
	}
	return name, StoreOptions{Shards: n}, nil
}

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
// backends implement; third-party implementations plug in through
// WithStore (one pinned instance) or RegisterStore + WithStoreName (a
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

// StoreOptions parameterizes a named store factory. A factory reads the
// fields it understands and rejects values it cannot honor where
// silently ignoring them would mislead (the built-in "mem" and "file"
// factories reject Shards > 1 — asking an unsharded backend to shard is
// a misconfiguration, not a default).
type StoreOptions struct {
	// WriteBPS / ReadBPS model storage bandwidth in bytes/second:
	// aggregate for "mem" and "file", per shard for "sharded", "ec" and
	// "replica". 0 means free (untimed) storage.
	WriteBPS, ReadBPS float64
	// Shards is the shard count of a "sharded" store (values < 1 mean
	// one shard). For "ec" it is the data-shard count k of the k+m
	// geometry.
	Shards int
	// Parity is the parity-shard count m of an "ec" store (k = Shards);
	// the store spreads k+m fragment shards and survives any m losses.
	// Zero everywhere else.
	Parity int
	// Replicas is the copy count r of a "replica" store (r >= 2). Zero
	// everywhere else.
	Replicas int
	// Placement maps a rank to its shard — reduced modulo the physical
	// shard count (Shards, k+m, or r) — and for "ec" selects the base
	// shard of the rank's fragment group. nil defaults to per-cluster
	// placement when the run has a topology (ClusterPlacement) and
	// round-robin otherwise.
	Placement func(rank int) int
	// Dir is the directory of a "file" store.
	Dir string
}

// totalShards is the physical shard count a spec implies — replica
// count for "replica", data+parity for "ec", plain Shards otherwise —
// the modulus ClusterPlacement needs.
func (o StoreOptions) totalShards() int {
	switch {
	case o.Replicas > 0:
		return o.Replicas
	case o.Parity > 0:
		return o.Shards + o.Parity
	default:
		return o.Shards
	}
}

// StoreFactory builds a Store from options — the common constructor
// signature RegisterStore expects. Each call must return a fresh,
// independent store.
type StoreFactory func(StoreOptions) (Store, error)

// storeBackend is one store-registry entry. The built-ins keep their
// option check apart from construction, so a spec can be validated
// without building anything (a directory-backed store creates its
// directory when built); a third-party factory is opaque and has none —
// its option errors surface when a run first builds the store.
type storeBackend struct {
	check func(StoreOptions) error
	build StoreFactory
}

// validate checks opts against the backend without constructing it. The
// bandwidths are checked for every backend, third-party ones included: a
// negative or non-finite rate has no meaning, and none may silently
// stand for free storage.
func (b storeBackend) validate(opts StoreOptions) error {
	for _, bps := range []float64{opts.WriteBPS, opts.ReadBPS} {
		if bps < 0 || math.IsNaN(bps) || math.IsInf(bps, 0) {
			return fmt.Errorf("hydee: store bandwidth must be finite and >= 0 (got write %g, read %g B/s)", opts.WriteBPS, opts.ReadBPS)
		}
	}
	if b.check == nil {
		return nil
	}
	return b.check(opts)
}

// newStore is the one resolution path from options to a run's store:
// check the options, default the placement of a multi-target store to
// per-cluster when the run has a topology, build.
func (b storeBackend) newStore(opts StoreOptions, topo *Topology) (Store, error) {
	if err := b.validate(opts); err != nil {
		return nil, err
	}
	if n := opts.totalShards(); opts.Placement == nil && n > 1 && topo != nil {
		opts.Placement = ClusterPlacement(topo, n)
	}
	return b.build(opts)
}

// rejectRedundancy guards backends that neither erasure-code nor
// replicate against silently dropping a redundancy request.
func rejectRedundancy(name string, o StoreOptions) error {
	if o.Parity > 0 {
		return fmt.Errorf("hydee: store %q does not erasure-code (got Parity=%d); use \"ec\"", name, o.Parity)
	}
	if o.Replicas > 0 {
		return fmt.Errorf("hydee: store %q does not replicate (got Replicas=%d); use \"replica\"", name, o.Replicas)
	}
	return nil
}

// rejectSharding guards the unsharded backends likewise.
func rejectSharding(name string, o StoreOptions) error {
	if o.Shards > 1 {
		return fmt.Errorf(`hydee: store %q does not shard (got Shards=%d); use "sharded"`, name, o.Shards)
	}
	return rejectRedundancy(name, o)
}

var (
	memBackend = storeBackend{
		check: func(o StoreOptions) error { return rejectSharding("mem", o) },
		build: func(o StoreOptions) (Store, error) { return checkpoint.NewMemStore(o.WriteBPS, o.ReadBPS), nil },
	}
	fileBackend = storeBackend{
		check: func(o StoreOptions) error {
			if err := rejectSharding("file", o); err != nil {
				return err
			}
			if o.Dir == "" {
				return fmt.Errorf(`hydee: store "file" needs StoreOptions.Dir`)
			}
			return nil
		},
		build: func(o StoreOptions) (Store, error) { return checkpoint.NewFileStore(o.Dir, o.WriteBPS, o.ReadBPS) },
	}
	shardedBackend = storeBackend{
		check: func(o StoreOptions) error { return rejectRedundancy("sharded", o) },
		build: func(o StoreOptions) (Store, error) {
			if o.Dir != "" {
				return checkpoint.NewShardedFileStore(o.Dir, o.Shards, o.WriteBPS, o.ReadBPS, o.Placement)
			}
			return checkpoint.NewShardedStore(o.Shards, o.WriteBPS, o.ReadBPS, o.Placement), nil
		},
	}
	ecBackend = storeBackend{
		check: func(o StoreOptions) error {
			if o.Replicas > 0 {
				return fmt.Errorf(`hydee: store "ec" does not replicate (got Replicas=%d); use "replica"`, o.Replicas)
			}
			if o.Dir != "" {
				return fmt.Errorf(`hydee: store "ec" is memory-backed (got Dir=%q)`, o.Dir)
			}
			if o.Shards < 1 || o.Parity < 1 {
				return fmt.Errorf(`hydee: store "ec" needs Shards (data) >= 1 and Parity >= 1, got %d+%d (spec form ec:<k>+<m>)`, o.Shards, o.Parity)
			}
			return nil
		},
		build: func(o StoreOptions) (Store, error) {
			return checkpoint.NewECStore(o.Shards, o.Parity, o.WriteBPS, o.ReadBPS, o.Placement)
		},
	}
	replicaBackend = storeBackend{
		check: func(o StoreOptions) error {
			if o.Parity > 0 {
				return fmt.Errorf(`hydee: store "replica" does not erasure-code (got Parity=%d); use "ec"`, o.Parity)
			}
			if o.Shards > 1 {
				return fmt.Errorf(`hydee: store "replica" does not shard (got Shards=%d); replicas come from Replicas/replica:<r>`, o.Shards)
			}
			if o.Dir != "" {
				return fmt.Errorf(`hydee: store "replica" is memory-backed (got Dir=%q)`, o.Dir)
			}
			if o.Replicas < 2 {
				return fmt.Errorf(`hydee: store "replica" needs Replicas >= 2, got %d (spec form replica:<r>)`, o.Replicas)
			}
			return nil
		},
		build: func(o StoreOptions) (Store, error) {
			return checkpoint.NewReplicatedStore(o.Replicas, o.WriteBPS, o.ReadBPS, o.Placement)
		},
	}
)

// NewMemStore builds an in-memory store with a shared write/read
// bandwidth model (zero disables timing) — the default backend.
func NewMemStore(writeBPS, readBPS float64) Store {
	return checkpoint.NewMemStore(writeBPS, readBPS)
}

// NewFileStore builds a store persisting snapshots as files under dir.
func NewFileStore(dir string, writeBPS, readBPS float64) (Store, error) {
	return checkpoint.NewFileStore(dir, writeBPS, readBPS)
}

// NewShardedStore builds a store of n independent in-memory shards, each
// with its own bandwidth-contention window: checkpoints on different
// shards never queue behind each other. place maps rank to shard (nil =
// round-robin); use ClusterPlacement to give each cluster its own
// storage target.
func NewShardedStore(n int, writeBPS, readBPS float64, place func(rank int) int) Store {
	return checkpoint.NewShardedStore(n, writeBPS, readBPS, place)
}

// NewShardedFileStore builds (or reopens) a durable sharded store under
// dir, one file-backed shard per directory dir/shard-000, dir/shard-001,
// ... Reopening with n == 0 infers the shard count from the layout;
// snapshots saved before the reopen stay loadable. Also reachable as
// WithStoreName("sharded", StoreOptions{Dir: ..., Shards: n}) and
// `-store sharded:n -store-dir dir` in hydee-recover.
func NewShardedFileStore(dir string, n int, writeBPS, readBPS float64, place func(rank int) int) (Store, error) {
	return checkpoint.NewShardedFileStore(dir, n, writeBPS, readBPS, place)
}

// NewECStore builds an erasure-coded store: each snapshot is split into
// k data + m parity fragments spread over k+m independent in-memory
// shards (one bandwidth-contention window each), and restored from any k
// surviving fragments — m arbitrary shard losses cost no data, for an
// (k+m)/k× storage overhead instead of replication's r×. place selects
// the base shard of a rank's fragment group (nil = round-robin by rank);
// use ClusterPlacement so fragment groups start on their cluster's
// storage target. Also reachable as WithStoreName("ec",
// StoreOptions{Shards: k, Parity: m}) and `-store ec:k+m`.
func NewECStore(k, m int, writeBPS, readBPS float64, place func(rank int) int) (Store, error) {
	return checkpoint.NewECStore(k, m, writeBPS, readBPS, place)
}

// NewReplicatedStore builds an r-way replicated store (r >= 2): every
// snapshot is written in full to all r in-memory replicas and read back
// from the first healthy one, surviving up to r-1 replica losses at r×
// storage cost. place selects a rank's home (first-probed) replica; nil
// is round-robin. Also reachable as WithStoreName("replica",
// StoreOptions{Replicas: r}) and `-store replica:r`.
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
	// FaultyStore wraps a store with a shard-fault schedule; its
	// FaultStats method reports per-shard fault activity.
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

// NewFaultyStore wraps inner so the scheduled ShardFaults apply to its
// shards: shards of a sharded/ec store, replicas of a replicated store,
// or the whole store as shard 0 otherwise. Install it before the store
// carries traffic. Fault activation is a pure predicate on each
// operation's virtual issue time, so injected failures are totally
// ordered against all other store traffic and runs stay
// byte-reproducible.
func NewFaultyStore(inner Store, faults ...ShardFault) (*FaultyStore, error) {
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
// cannot resolve, naming no registered store or options its store
// refuses. Its message lists the accepted forms and the registered store
// names, canonical first, aliases after.
type StoreSpecError struct {
	Spec   string // the spec as given
	Reason string // what is wrong with it
}

func (e *StoreSpecError) Error() string {
	return fmt.Sprintf("hydee: store spec %q: %s (forms: %s; stores: %s)",
		e.Spec, e.Reason, StoreSpecForms, storeRegistry.have())
}

// maxStoreShards bounds every geometry a spec can ask for: the shard
// count of a Reed–Solomon code over GF(2^8), and far more targets than
// any run here places checkpoints on.
const maxStoreShards = 256

// ParseStoreSpec parses a -store flag value into the registry name and
// the StoreOptions geometry it implies:
//
//	"mem"          → ("mem", {})
//	"sharded:6"    → ("sharded", {Shards: 6})
//	"ec:4+2"       → ("ec", {Shards: 4, Parity: 2})
//	"replica:3"    → ("replica", {Replicas: 3})
//
// Geometry is validated eagerly — ec needs k >= 1 data and m >= 1
// parity shards with k+m <= 256, replica 2 to 256 copies, sharded 1 to
// 256 shards — so a bad spec fails at flag-parse time with a
// *StoreSpecError instead of deep in run setup. Bandwidth, directory and placement are orthogonal knobs
// the caller layers onto the returned options.
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

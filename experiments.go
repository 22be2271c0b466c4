package hydee

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"hydee/internal/apps"
	"hydee/internal/graph"
	"hydee/internal/netmodel"
)

// The paper's evaluation and its extensions, each one entry point over
// RunExperiments or runExperiment: Table I (Table1), Figures 5 and 6,
// failure containment (E4, Containment), checkpoint I/O bursts (E5,
// CheckpointBurst) and storage redundancy under shard loss (E6).

// ---------------------------------------------------------------------------
// T1 — Table I: application clustering.

// Table1Row reproduces one row of Table I.
type Table1Row struct {
	App string
	// K is the number of clusters the tool chose.
	K int
	// RollbackPct is the average percentage of processes that roll back
	// after a single uniformly-placed failure.
	RollbackPct float64
	// LoggedGB / TotalGB are whole-run volumes extrapolated to the
	// class-D iteration count.
	LoggedGB, TotalGB float64
	// LoggedPct is the logged fraction.
	LoggedPct float64
	// Assign is the clustering, reused by the other experiments.
	Assign []int
}

// Table1 regenerates Table I: it traces each kernel's communication graph
// at np ranks under the network model (nil = Myrinet10G) and runs the
// clustering tool (DefaultClusterOptions) on it. The six kernel traces
// are independent runs, so they execute through RunExperiments at the
// given parallelism (<= 0 = one worker per CPU); the clustering itself is
// serial and deterministic, making the rows identical to the serial path
// at any parallelism.
func Table1(ctx context.Context, np, traceIters int, model Model, parallelism int) ([]Table1Row, error) {
	kernels := apps.Registry()
	specs := make([]ExperimentSpec, len(kernels))
	for i, k := range kernels {
		// The clustering tool's input (the off-line tool of [28]): the
		// kernel's traffic in a failure-free native run.
		specs[i] = ExperimentSpec{Kernel: k, Params: KernelParams{NP: np, Iters: traceIters}, Proto: ProtoNative, Model: model}
	}
	sums, err := RunExperiments(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	rows := make([]Table1Row, 0, len(kernels))
	for i, k := range kernels {
		g := graph.FromPairBytes(np, sums[i].PairBytes)
		res := graph.Cluster(g, graph.DefaultOptions())
		scale := float64(k.ClassIters) / float64(traceIters)
		rows = append(rows, Table1Row{
			App:         k.Name,
			K:           res.K,
			RollbackPct: res.ExpRollback * 100,
			LoggedGB:    res.CutBytes * scale / 1e9,
			TotalGB:     res.TotalBytes * scale / 1e9,
			LoggedPct:   res.CutFrac * 100,
			Assign:      res.Assign,
		})
	}
	return rows, nil
}

// Clusterings runs the clustering tool for every kernel and returns the
// assignments keyed by kernel name (shared by Figure6 and E4).
func Clusterings(np, traceIters int) (map[string][]int, []Table1Row, error) {
	rows, err := Table1(context.Background(), np, traceIters, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string][]int, len(rows))
	for _, r := range rows {
		m[r.App] = r.Assign
	}
	return m, rows, nil
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: NetPIPE latency/bandwidth degradation.

// Fig5Row is one message size of Figure 5's two charts.
type Fig5Row struct {
	Bytes int
	// Native one-way latency (µs) and bandwidth (MB/s).
	NativeLatUs, NativeBW float64
	// Latency degradation in percent, reported negative like the paper's
	// "performance reduction" axis: -100*(L_hydee-L_native)/L_hydee.
	LatRedNoLogPct, LatRedLogPct float64
	// Bandwidth reduction in percent (negative when HydEE is slower).
	BWRedNoLogPct, BWRedLogPct float64
}

// NetPIPEStandardSizes is the Figure 5 size sweep, NetPIPE-like: powers
// of two from 1 B to 8 MiB with intermediate 3/4 points, plus the sizes
// straddling the piggyback-relevant plateau boundaries.
func NetPIPEStandardSizes() []int {
	var sizes []int
	add := func(n int) {
		if n >= 1 && n <= 8<<20 && !slices.Contains(sizes, n) {
			sizes = append(sizes, n)
		}
	}
	for n := 1; n <= 8<<20; n <<= 1 {
		add(n)
		add(n * 3 / 2)
	}
	// Boundary straddles where a 16-byte piggyback changes the plateau.
	for _, b := range []int{32, 128, 1024, 32 * 1024} {
		add(b - netmodel.PiggybackBytes)
		add(b - netmodel.PiggybackBytes + 1)
		add(b)
		add(b + 1)
	}
	slices.Sort(sizes)
	return sizes
}

// pingPong is the Figure 5 kernel: Params.Iters round trips of a
// size-byte message between two ranks (apps.PingPong).
func pingPong(size int) Kernel {
	return Kernel{Name: fmt.Sprintf("pingpong-%dB", size), Make: func(p KernelParams) (Program, error) {
		return apps.PingPong(p.Iters, size), nil
	}}
}

// pingPongPoint is the one-way latency (µs) and bandwidth (MB/s) of a
// ping-pong run of reps round trips of size bytes.
func pingPongPoint(sum *ExperimentSummary, size, reps int) (latUs, mbps float64) {
	latUs = sum.Makespan.Micros() / float64(2*reps)
	if latUs > 0 {
		mbps = float64(size) / latUs // bytes per µs == MB/s
	}
	return latUs, mbps
}

// Figure5 regenerates Figure 5: the ping-pong benchmark in the paper's
// three configurations (native, same-cluster HydEE, cross-cluster HydEE)
// over the network model (nil = Myrinet10G, nil sizes = the standard
// sweep, reps <= 0 = 10 round trips per size), all runs through
// RunExperiments.
func Figure5(ctx context.Context, model Model, sizes []int, reps int) ([]Fig5Row, error) {
	if model == nil {
		model = netmodel.Myrinet10G()
	}
	if reps <= 0 {
		reps = 10
	}
	if sizes == nil {
		sizes = NetPIPEStandardSizes()
	}
	params := KernelParams{NP: 2, Iters: reps}
	specs := make([]ExperimentSpec, 0, 3*len(sizes))
	for _, size := range sizes {
		k := pingPong(size)
		specs = append(specs,
			ExperimentSpec{Kernel: k, Params: params, Proto: ProtoNative, Model: model},
			ExperimentSpec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: []int{0, 0}, Model: model},
			ExperimentSpec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: []int{0, 1}, Model: model},
		)
	}
	sums, err := RunExperiments(ctx, specs, 0)
	if err != nil {
		return nil, fmt.Errorf("figure5: %w", err)
	}
	rows := make([]Fig5Row, len(sizes))
	for i, size := range sizes {
		nLat, nBW := pingPongPoint(sums[3*i], size, reps)
		aLat, aBW := pingPongPoint(sums[3*i+1], size, reps)
		bLat, bBW := pingPongPoint(sums[3*i+2], size, reps)
		rows[i] = Fig5Row{
			Bytes:          size,
			NativeLatUs:    nLat,
			NativeBW:       nBW,
			LatRedNoLogPct: -100 * (aLat - nLat) / aLat,
			LatRedLogPct:   -100 * (bLat - nLat) / bLat,
			BWRedNoLogPct:  -100 * (nBW - aBW) / nBW,
			BWRedLogPct:    -100 * (nBW - bBW) / nBW,
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: NAS failure-free overhead.

// Fig6Row is one benchmark bar group of Figure 6.
type Fig6Row struct {
	App string
	// Normalized execution times (native = 1.0).
	MLogNorm, HydEENorm float64
	// Overheads in percent.
	MLogPct, HydEEPct float64
	// HydEELoggedPct is the fraction of bytes HydEE logged.
	HydEELoggedPct float64
	NativeTime     Time
}

// Figure6 regenerates Figure 6 at np ranks: each kernel runs failure-free
// under native, a comparator protocol for the middle bar (ProtoMLog
// reproduces the paper) and HydEE with the given clusterings, over the
// network model (nil = Myrinet10G), and the rows report normalized times.
// The 3*|kernels| runs are independent and execute through
// RunExperiments at the given parallelism (<= 0 = one worker per CPU).
func Figure6(ctx context.Context, np, iters int, clusterings map[string][]int, model Model, comparator ExperimentProto, parallelism int) ([]Fig6Row, error) {
	kernels := apps.Registry()
	specs := make([]ExperimentSpec, 0, 3*len(kernels))
	for _, k := range kernels {
		assign, ok := clusterings[k.Name]
		if !ok {
			return nil, fmt.Errorf("figure6: no clustering for %s", k.Name)
		}
		params := KernelParams{NP: np, Iters: iters}
		specs = append(specs,
			ExperimentSpec{Kernel: k, Params: params, Proto: ProtoNative, Model: model},
			ExperimentSpec{Kernel: k, Params: params, Proto: comparator, Assign: assign, Model: model},
			ExperimentSpec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: assign, Model: model},
		)
	}
	sums, err := RunExperiments(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	rows := make([]Fig6Row, 0, len(kernels))
	for i, k := range kernels {
		nat, cmp, hyd := sums[3*i], sums[3*i+1], sums[3*i+2]
		if err := sameDigests(nat, hyd); err != nil {
			return nil, fmt.Errorf("figure6: %s: hydee diverged from native: %w", k.Name, err)
		}
		base := float64(nat.Makespan)
		rows = append(rows, Fig6Row{
			App:            k.Name,
			MLogNorm:       float64(cmp.Makespan) / base,
			HydEENorm:      float64(hyd.Makespan) / base,
			MLogPct:        (float64(cmp.Makespan)/base - 1) * 100,
			HydEEPct:       (float64(hyd.Makespan)/base - 1) * 100,
			HydEELoggedPct: hyd.LoggedFrac * 100,
			NativeTime:     nat.Makespan,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E4 — failure containment.

// E4Row compares the protocols' failure behaviour on one kernel.
type E4Row struct {
	App   string
	Proto string
	// RolledBackPct is the share of processes forced to roll back.
	RolledBackPct float64
	// RecoveryVT is the recovery-coordination time of the round.
	RecoveryVT Duration
	// MakespanVT is the total run time with the failure.
	MakespanVT Time
	// OverheadPct is the makespan increase over the same protocol's
	// failure-free run.
	OverheadPct float64
	// LoggedFrac is the protocol's logged-byte fraction.
	LoggedFrac float64
}

// Containment regenerates E4: it runs base under each fault-tolerant
// protocol, failure-free and then with base.Failures, and measures how
// far the failure spreads; every recovered run is validated against its
// failure-free digests. base.Proto is ignored and base.Assign is HydEE's
// clustering. base.Failures must open exactly one recovery round; an
// AtVT trigger injects at a virtual time, including mid-checkpoint-wave.
// base.NewStore builds each run's fresh checkpoint store. The runs stay
// serial: a file store may share one directory across all of them.
func Containment(ctx context.Context, base ExperimentSpec) ([]E4Row, error) {
	var rows []E4Row
	for _, proto := range []ExperimentProto{ProtoCoord, ProtoMLog, ProtoHydEE} {
		spec := base
		spec.Proto = proto
		clean, failed, err := recoverOnce(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("e4: %s/%s: %w", base.Kernel.Name, proto, err)
		}
		rd := failed.Rounds[0]
		rows = append(rows, E4Row{
			App:           base.Kernel.Name,
			Proto:         proto.String(),
			RolledBackPct: 100 * float64(rd.RolledBack) / float64(base.Params.NP),
			RecoveryVT:    rd.EndVT.Sub(rd.StartVT),
			MakespanVT:    failed.Makespan,
			OverheadPct:   (float64(failed.Makespan)/float64(clean.Makespan) - 1) * 100,
			LoggedFrac:    failed.LoggedFrac,
		})
	}
	return rows, nil
}

// recoverOnce runs spec failure-free and then with its failure plan, and
// checks that the plan opened exactly one recovery round and that
// recovery ended in the failure-free digests.
func recoverOnce(ctx context.Context, spec ExperimentSpec) (clean, failed *ExperimentSummary, err error) {
	plan := spec.Failures
	spec.Failures = nil
	if clean, err = runExperiment(ctx, spec); err != nil {
		return nil, nil, fmt.Errorf("clean: %w", err)
	}
	spec.Failures = plan
	if failed, err = runExperiment(ctx, spec); err != nil {
		return nil, nil, fmt.Errorf("failed: %w", err)
	}
	if err := sameDigests(clean, failed); err != nil {
		return nil, nil, fmt.Errorf("recovered run diverged: %w", err)
	}
	if len(failed.Rounds) != 1 {
		return nil, nil, fmt.Errorf("expected 1 recovery round, got %d", len(failed.Rounds))
	}
	return clean, failed, nil
}

// ---------------------------------------------------------------------------
// E5 — checkpoint I/O bursts.

// E5Row compares simultaneous vs staggered checkpointing under a shared
// stable-storage bandwidth.
type E5Row struct {
	Config string
	// MaxQueue is the worst virtual-time backlog a checkpoint write saw.
	MaxQueue Duration
	// Makespan is the run time.
	Makespan Time
	// CkptBytes is the volume written.
	CkptBytes int64
}

// CheckpointBurst regenerates E5: base checkpoints simultaneously into
// one shared "mem" store of storeBPS bytes/second under the coordinated
// baseline and under HydEE (base.Assign), then under HydEE's per-cluster
// staggered schedule; with shards >= 2 it adds HydEE checkpointing
// simultaneously into a "sharded:<shards>" store of cluster-placed
// shards of storeBPS each. Sharding attacks the I/O burst spatially
// (independent storage targets) where staggering attacks it temporally
// (skewed schedules); the sharded MaxQueue backlog should drop toward the
// staggered one with no schedule skew at all. Every run is failure-free:
// base's Proto, Stagger, NewStore and Failures are ignored.
func CheckpointBurst(ctx context.Context, base ExperimentSpec, storeBPS float64, shards int) ([]E5Row, error) {
	type burstCase struct {
		name    string
		proto   ExperimentProto
		stagger bool
		store   StoreSpec
	}
	shared := StoreSpec{Spec: "mem", BPS: storeBPS}
	cases := []burstCase{
		{"coord-simultaneous", ProtoCoord, false, shared},
		{"hydee-simultaneous", ProtoHydEE, false, shared},
		{"hydee-staggered", ProtoHydEE, true, shared},
	}
	if shards >= 2 {
		sharded := StoreSpec{Spec: fmt.Sprintf("sharded:%d", shards), BPS: storeBPS}
		cases = append(cases, burstCase{"hydee-" + sharded.Spec, ProtoHydEE, false, sharded})
	}
	rows := make([]E5Row, 0, len(cases))
	for _, cs := range cases {
		spec := base
		spec.Proto, spec.Stagger, spec.NewStore, spec.Failures = cs.proto, cs.stagger, cs.store.New, nil
		sum, err := runExperiment(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("e5: %s: %w", cs.name, err)
		}
		rows = append(rows, E5Row{
			Config:    cs.name,
			MaxQueue:  sum.Store.MaxQueue,
			Makespan:  sum.Makespan,
			CkptBytes: sum.Totals.CkptBytes,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E6 — checkpoint-store redundancy under shard loss.
//
// The paper assumes checkpoints survive on stable storage; E6 drops that
// assumption and measures what each storage layout buys when storage
// itself fails at the worst possible moment — during recovery, after a
// rank failure has already committed the run to restoring from the
// store. For every layout the sweep runs the same kernel three times:
// failure-free (the cost baseline), with one rank failure on healthy
// storage (to learn the recovery round's deterministic start time), and
// with the same rank failure plus shard kills scheduled one virtual-time
// unit into the recovery round — after the last pre-failure checkpoint
// write, before the first restore read. A layout either survives (its
// restored run must match the failure-free digests bit-for-bit) or
// aborts with the typed ErrCheckpointLost.

// e6Row is one storage layout's outcome under recovery-time shard loss.
type e6Row struct {
	// Config names the layout ("shared", "sharded:6", "ec:4+2",
	// "replica:3").
	Config string
	// Shards is the layout's physical storage-target count.
	Shards int
	// Lost is how many of those targets were killed during recovery.
	Lost int
	// Survived reports whether the run still recovered (digest-checked
	// against the failure-free run).
	Survived bool
	// CleanVT is the failure-free makespan, FaultVT the makespan with
	// the rank failure plus shard loss (zero when the run aborted).
	CleanVT, FaultVT Time
	// OverheadPct is FaultVT over CleanVT, in percent (zero on abort).
	OverheadPct float64
	// PhysBytes is the physical checkpoint volume of the clean run —
	// the price of the layout's redundancy (r× for replica, (k+m)/k×
	// for ec).
	PhysBytes int64
	// DegradedLoads counts restore reads that had to route around lost
	// shards (extra fragment probes for ec, replica failovers).
	DegradedLoads int64
}

// shardSetStore is implemented by every composite store (sharded, ec,
// replica); the shared store is one target and never loads degraded.
type shardSetStore interface {
	NumShards() int
	DegradedLoads() int64
}

// storeFaultSweep runs the E6 shard-loss comparison: base under HydEE
// (base.Assign) with its checkpoint schedule and its failure plan, which
// must open one recovery round, and per storage layout a kill of the
// victim cluster's storage targets scheduled inside that round; the
// victim is base.Failures[0].Ranks[0], and base's Proto and NewStore are
// ignored. The four layouts have equal per-target bandwidth and are all
// cluster-placed: one shared store, six plain shards, a 4+2 erasure code
// (six targets, any two expendable) and three full replicas. The
// redundant layouts lose two targets; the shared store has only one to
// lose. Every surviving run is digest-checked against the layout's
// failure-free run; every aborting run must fail with ErrCheckpointLost.
func storeFaultSweep(ctx context.Context, base ExperimentSpec, storeBPS float64) ([]e6Row, error) {
	victim := base.Failures[0].Ranks[0]
	var rows []e6Row
	for _, layout := range []struct {
		name, spec string
		lose       int // how many targets the faulted run kills
	}{{"shared", "mem", 1}, {"sharded:6", "sharded:6", 2}, {"ec:4+2", "ec:4+2", 2}, {"replica:3", "replica:3", 2}} {
		store := StoreSpec{Spec: layout.spec, BPS: storeBPS}
		spec := base
		spec.Proto, spec.NewStore = ProtoHydEE, store.New

		// 1–2. The failure-free baseline (clean makespan, digests and the
		// layout's physical storage bill), then a probe: the same rank
		// failure on healthy storage pins down the recovery round's
		// start in virtual time (deterministic, so it transfers to the
		// faulted run below).
		clean, probe, err := recoverOnce(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("e6: %s: %w", layout.name, err)
		}
		// One VT unit into the round: after every pre-failure
		// checkpoint write was issued, before the restore reads (which
		// go out a network hop after detection).
		faultVT := probe.Rounds[0].StartVT.Add(1)

		// 3. The same run with the victim cluster's storage targets
		// killed mid-recovery.
		topo := NewTopology(base.Assign)
		st, err := store.New(topo)
		if err != nil {
			return nil, fmt.Errorf("e6: %s: %w", layout.name, err)
		}
		n := 1
		set, composite := st.(shardSetStore)
		if composite {
			n = set.NumShards()
		}
		lost := min(layout.lose, n)
		home := ClusterPlacement(topo, n)(victim)
		faults := make([]ShardFault, lost)
		for i := range faults {
			faults[i] = ShardFault{Shard: (home + i) % n, AtVT: faultVT, Kind: FaultKill}
		}
		faulty, err := NewFaultyStore(st, faults...)
		if err != nil {
			return nil, fmt.Errorf("e6: %s: %w", layout.name, err)
		}
		row := e6Row{
			Config:    layout.name,
			Shards:    n,
			Lost:      lost,
			CleanVT:   clean.Makespan,
			PhysBytes: clean.Store.SavedBytes,
		}
		spec.NewStore = func(*Topology) (Store, error) { return faulty, nil }
		faulted, err := runExperiment(ctx, spec)
		switch {
		case err == nil:
			if err := sameDigests(clean, faulted); err != nil {
				return nil, fmt.Errorf("e6: %s survived shard loss but diverged: %w", layout.name, err)
			}
			row.Survived = true
			row.FaultVT = faulted.Makespan
			row.OverheadPct = (float64(faulted.Makespan)/float64(clean.Makespan) - 1) * 100
			if composite {
				row.DegradedLoads = set.DegradedLoads()
			}
		case errors.Is(err, ErrCheckpointLost):
			// The layout could not cover the loss; the run aborted
			// with the typed error instead of computing on from a
			// damaged state.
		default:
			return nil, fmt.Errorf("e6: %s faulted run failed unexpectedly: %w", layout.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Formatters.

// FormatTable1 renders Table I like the paper.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %24s %26s\n", "App", "Nb Clusters", "Avg % Ranks to Roll Back", "Log/Total Amount of Data")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %23.2f%% %12.0f/%.0f GB (%.2f%%)\n",
			strings.ToUpper(r.App), r.K, r.RollbackPct, r.LoggedGB, r.TotalGB, r.LoggedPct)
	}
	return b.String()
}

// FormatFigure5 renders the two Figure 5 series as columns.
func FormatFigure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %14s %14s %14s %14s\n",
		"Bytes", "NativeLat(µs)", "LatRed-noLog%", "LatRed-log%", "BWRed-noLog%", "BWRed-log%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12.2f %14.2f %14.2f %14.2f %14.2f\n",
			r.Bytes, r.NativeLatUs, r.LatRedNoLogPct, r.LatRedLogPct, r.BWRedNoLogPct, r.BWRedLogPct)
	}
	return b.String()
}

// FormatFigure6 renders the normalized execution times of Figure 6.
func FormatFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %12s %12s %12s %12s\n",
		"App", "Native", "MsgLog", "HydEE", "MsgLog ovh", "HydEE ovh")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10s %12.4f %12.4f %11.2f%% %11.2f%%\n",
			strings.ToUpper(r.App), "1.0000", r.MLogNorm, r.HydEENorm, r.MLogPct, r.HydEEPct)
	}
	return b.String()
}

// FormatE4 renders the containment comparison.
func FormatE4(rows []E4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-7s %14s %14s %14s %12s\n",
		"App", "Proto", "RolledBack", "RecoveryVT", "Makespan", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-7s %13.2f%% %14s %14s %11.2f%%\n",
			strings.ToUpper(r.App), r.Proto, r.RolledBackPct, r.RecoveryVT, r.MakespanVT, r.OverheadPct)
	}
	return b.String()
}

// FormatE5 renders the checkpoint-burst comparison.
func FormatE5(rows []E5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %14s\n", "Config", "MaxQueue", "Makespan", "CkptBytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14s %14s %14d\n", r.Config, r.MaxQueue, r.Makespan, r.CkptBytes)
	}
	return b.String()
}

// formatE6 renders the shard-loss redundancy comparison. Aborted rows
// print "lost" with dashes for the observables a dead run does not have.
func formatE6(rows []e6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %5s %9s %14s %14s %10s %14s %9s\n",
		"Config", "Shards", "Lost", "Outcome", "CleanVT", "FaultVT", "Overhead", "PhysBytes", "DegLoads")
	for _, r := range rows {
		if !r.Survived {
			fmt.Fprintf(&b, "%-12s %7d %5d %9s %14s %14s %10s %14d %9s\n",
				r.Config, r.Shards, r.Lost, "lost", r.CleanVT, "-", "-", r.PhysBytes, "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %7d %5d %9s %14s %14s %9.2f%% %14d %9d\n",
			r.Config, r.Shards, r.Lost, "recovered", r.CleanVT, r.FaultVT, r.OverheadPct, r.PhysBytes, r.DegradedLoads)
	}
	return b.String()
}

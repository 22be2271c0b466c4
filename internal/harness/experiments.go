package harness

import (
	"context"
	"fmt"
	"slices"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/graph"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

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

// Table1 traces each kernel's communication graph at np ranks under the
// network model (nil = Myrinet10G) and runs the clustering tool on it. The
// six kernel traces are independent runs, so they execute through RunAll
// at the given parallelism (<= 0 = one worker per CPU); the clustering
// itself is serial and deterministic, making the rows identical to the
// serial path at any parallelism.
func Table1(ctx context.Context, np, traceIters int, opt graph.Options, model netmodel.Model, parallelism int) ([]Table1Row, error) {
	kernels := apps.Registry()
	specs := make([]Spec, len(kernels))
	for i, k := range kernels {
		specs[i] = TraceSpec(k, apps.Params{NP: np, Iters: traceIters}, model)
	}
	sums, err := RunAll(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	rows := make([]Table1Row, 0, len(kernels))
	for i, k := range kernels {
		g := graph.FromPairBytes(np, sums[i].PairBytes)
		res := graph.Cluster(g, opt)
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

// StandardSizes returns a NetPIPE-like size sweep: powers of two from 1 B
// to 8 MiB with intermediate 3/4 points, plus the sizes straddling the
// piggyback-relevant plateau boundaries.
func StandardSizes() []int {
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
func pingPong(size int) apps.Kernel {
	return apps.Kernel{Name: fmt.Sprintf("pingpong-%dB", size), Make: func(p apps.Params) (mpi.Program, error) {
		return apps.PingPong(p.Iters, size), nil
	}}
}

// pingPongPoint is the one-way latency (µs) and bandwidth (MB/s) of a
// ping-pong run of reps round trips of size bytes.
func pingPongPoint(sum *Summary, size, reps int) (latUs, mbps float64) {
	latUs = sum.Makespan.Micros() / float64(2*reps)
	if latUs > 0 {
		mbps = float64(size) / latUs // bytes per µs == MB/s
	}
	return latUs, mbps
}

// Figure5 sweeps the ping-pong benchmark in the paper's three
// configurations (native, same-cluster HydEE, cross-cluster HydEE) over
// the network model (nil = Myrinet10G, nil sizes = the standard sweep,
// reps <= 0 = 10 round trips per size), all runs through RunAll.
func Figure5(ctx context.Context, model netmodel.Model, sizes []int, reps int) ([]Fig5Row, error) {
	if model == nil {
		model = netmodel.Myrinet10G()
	}
	if reps <= 0 {
		reps = 10
	}
	if sizes == nil {
		sizes = StandardSizes()
	}
	params := apps.Params{NP: 2, Iters: reps}
	specs := make([]Spec, 0, 3*len(sizes))
	for _, size := range sizes {
		k := pingPong(size)
		specs = append(specs,
			Spec{Kernel: k, Params: params, Proto: ProtoNative, Model: model},
			Spec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: []int{0, 0}, Model: model},
			Spec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: []int{0, 1}, Model: model},
		)
	}
	sums, err := RunAll(ctx, specs, 0)
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
	NativeTime     vtime.Time
}

// Figure6 runs each kernel failure-free under native, a comparator
// protocol for the middle bar (ProtoMLog reproduces the paper) and HydEE
// with the given clusterings, over the network model (nil = Myrinet10G),
// and reports normalized times. The 3*|kernels| runs are independent and
// execute through RunAll at the given parallelism (<= 0 = one worker per
// CPU).
func Figure6(ctx context.Context, np, iters int, clusterings map[string][]int, model netmodel.Model, comparator Proto, parallelism int) ([]Fig6Row, error) {
	kernels := apps.Registry()
	specs := make([]Spec, 0, 3*len(kernels))
	for _, k := range kernels {
		assign, ok := clusterings[k.Name]
		if !ok {
			return nil, fmt.Errorf("figure6: no clustering for %s", k.Name)
		}
		params := apps.Params{NP: np, Iters: iters}
		specs = append(specs,
			Spec{Kernel: k, Params: params, Proto: ProtoNative, Model: model},
			Spec{Kernel: k, Params: params, Proto: comparator, Assign: assign, Model: model},
			Spec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: assign, Model: model},
		)
	}
	sums, err := RunAll(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	rows := make([]Fig6Row, 0, len(kernels))
	for i, k := range kernels {
		nat, cmp, hyd := sums[3*i], sums[3*i+1], sums[3*i+2]
		if err := SameDigests(nat, hyd); err != nil {
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

// Clusterings runs the clustering tool for every kernel and returns the
// assignments keyed by kernel name (shared by Figure6 and E4).
func Clusterings(np, traceIters int, opt graph.Options) (map[string][]int, []Table1Row, error) {
	rows, err := Table1(context.Background(), np, traceIters, opt, nil, 0)
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
// E4 — failure containment.

// E4Row compares the protocols' failure behaviour on one kernel.
type E4Row struct {
	App   string
	Proto string
	// RolledBackPct is the share of processes forced to roll back.
	RolledBackPct float64
	// RecoveryVT is the recovery-coordination time of the round.
	RecoveryVT vtime.Duration
	// MakespanVT is the total run time with the failure.
	MakespanVT vtime.Time
	// OverheadPct is the makespan increase over the same protocol's
	// failure-free run.
	OverheadPct float64
	// LoggedFrac is the protocol's logged-byte fraction.
	LoggedFrac float64
}

// Containment injects one failure into the kernel under each
// fault-tolerant protocol and measures how far it spreads. Results are
// also validated against the failure-free digests. failWhen triggers the
// victim (rank np/2) — an AtVT trigger injects at a virtual time,
// including mid-checkpoint-wave; model is the network (nil = Myrinet10G)
// and newStore the checkpoint-store constructor (nil = a fresh free
// in-memory store per run; the constructor sees each run's topology so
// sharded stores can place clusters). The runs stay serial: a file-backed
// store built by newStore may share one directory across all of them.
func Containment(ctx context.Context, k apps.Kernel, np, iters, ckptEvery int, assign []int, failWhen failure.Trigger, model netmodel.Model, newStore func(*rollback.Topology) (checkpoint.Store, error)) ([]E4Row, error) {
	var rows []E4Row
	for _, proto := range []Proto{ProtoCoord, ProtoMLog, ProtoHydEE} {
		params := apps.Params{NP: np, Iters: iters}
		base := Spec{Kernel: k, Params: params, Proto: proto, Assign: assign, CheckpointEvery: ckptEvery, Model: model, NewStore: newStore}
		clean, err := RunCtx(ctx, base)
		if err != nil {
			return nil, fmt.Errorf("e4: %s/%s clean: %w", k.Name, proto, err)
		}
		withFail := base
		withFail.Failures = []failure.Event{{Ranks: []int{np / 2}, When: failWhen}}
		failed, err := RunCtx(ctx, withFail)
		if err != nil {
			return nil, fmt.Errorf("e4: %s/%s failed: %w", k.Name, proto, err)
		}
		if err := SameDigests(clean, failed); err != nil {
			return nil, fmt.Errorf("e4: %s/%s: recovered run diverged: %w", k.Name, proto, err)
		}
		if len(failed.Rounds) != 1 {
			return nil, fmt.Errorf("e4: %s/%s: expected 1 recovery round, got %d", k.Name, proto, len(failed.Rounds))
		}
		rd := failed.Rounds[0]
		rows = append(rows, E4Row{
			App:           k.Name,
			Proto:         proto.String(),
			RolledBackPct: 100 * float64(rd.RolledBack) / float64(np),
			RecoveryVT:    rd.EndVT.Sub(rd.StartVT),
			MakespanVT:    failed.Makespan,
			OverheadPct:   (float64(failed.Makespan)/float64(clean.Makespan) - 1) * 100,
			LoggedFrac:    failed.LoggedFrac,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E5 — checkpoint I/O bursts.

// E5Row compares simultaneous vs staggered checkpointing under a shared
// stable-storage bandwidth.
type E5Row struct {
	Config string
	// MaxQueue is the worst virtual-time backlog a checkpoint write saw.
	MaxQueue vtime.Duration
	// Makespan is the run time.
	Makespan vtime.Time
	// CkptBytes is the volume written.
	CkptBytes int64
}

// CheckpointBurst runs E5: the kernel checkpoints simultaneously into
// one shared store of storeBPS bytes/second under the coordinated
// baseline and under HydEE, then under HydEE's per-cluster staggered
// schedule; with shards >= 2 it adds HydEE checkpointing simultaneously
// into a sharded store of `shards` cluster-placed shards of storeBPS
// each. Sharding attacks the I/O burst spatially (independent storage
// targets) where staggering attacks it temporally (skewed schedules);
// the sharded MaxQueue backlog should drop toward the staggered one with
// no schedule skew at all. model selects the network (nil = Myrinet10G).
func CheckpointBurst(ctx context.Context, k apps.Kernel, np, iters, ckptEvery int, assign []int, storeBPS float64, shards int, model netmodel.Model) ([]E5Row, error) {
	type burstCase struct {
		name     string
		proto    Proto
		stagger  bool
		newStore func(*rollback.Topology) (checkpoint.Store, error)
	}
	cases := []burstCase{
		{"coord-simultaneous", ProtoCoord, false, memStore(storeBPS)},
		{"hydee-simultaneous", ProtoHydEE, false, memStore(storeBPS)},
		{"hydee-staggered", ProtoHydEE, true, memStore(storeBPS)},
	}
	if shards >= 2 {
		cases = append(cases, burstCase{fmt.Sprintf("hydee-sharded:%d", shards), ProtoHydEE, false, shardedStore(shards, storeBPS)})
	}
	rows := make([]E5Row, 0, len(cases))
	for _, cs := range cases {
		sum, err := RunCtx(ctx, Spec{
			Kernel: k, Params: apps.Params{NP: np, Iters: iters},
			Proto: cs.proto, Assign: assign, Model: model,
			CheckpointEvery: ckptEvery, Stagger: cs.stagger,
			NewStore: cs.newStore,
		})
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

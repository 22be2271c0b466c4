package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"hydee"
	"hydee/internal/checkpoint"
)

// A workload is one set of inputs the benchmark runs. prepare does
// everything that precedes the timed region — inputs from the seed,
// topology, stores, clusterings, server boot — and returns the timed
// region as a closure; run-one (main.go) times both.
type workload struct {
	name string
	why  string
	// planeNP is the workload's rank count per simulation, one of the
	// plane probe's sizes: it picks the cost per mutation from which the
	// delivery plane's share of the workload's time is estimated.
	planeNP int
	// prepare builds the job.
	prepare func(e env) (*job, error)
}

// env is what a workload may depend on.
type env struct {
	seed int64
	// tiny selects the test scale (np <= 16, a handful of jobs).
	tiny bool
	tr   *tracer
	// stamped asks an untraced fig6 run to record run-start/run-complete
	// host stamps (the harness pool metrics of the traced pass).
	stamped bool
}

type job struct {
	run     func() (*outcome, error)
	cleanup func()
}

// outcome is what one execution of a timed region produced.
type outcome struct {
	// Msgs is the number of application-level deliveries simulated.
	Msgs int64 `json:"msgs"`
	// JobMS lists the latency of every job the region completed: one
	// Engine.Run, one whole sweep, or one HTTP job (POST to summary).
	JobMS []float64 `json:"job_ms"`
	// Attempted / Failed count operations (runs or jobs).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// VTDigest hashes every virtual-time output of the region: makespans,
	// recovery stats, store stats, protocol totals, per-rank results. A
	// speed-up may not change a byte of it.
	VTDigest string `json:"vt_digest"`
	// Counts are exact, repeatable counts (saves, rounds, logged messages).
	Counts map[string]int64 `json:"counts"`
	// Errors describes each failed operation.
	Errors []string `json:"errors,omitempty"`
	// Layer holds the per-layer metrics of a traced run.
	Layer map[string]float64 `json:"layer,omitempty"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

var workloads = []workload{
	{
		name:    "stencil1024-onefail",
		why:     "HydEE, np=1024 in 32 clusters of 32, 4-step torus halo exchange, one failure, one 32-rank recovery round: the roadmap's scale point; the delivery plane dominates (cost ~ mutations x np).",
		planeNP: 1024,
		prepare: stencilWorkload(1024, 32, 4, 2),
	},
	{
		name:    "stencil256-long",
		why:     "Same exchange and failure at np=256 for 16 steps: same application-message count on a quarter of the ranks, so wall_s(1024)/wall_s(256) is what np costs per message; wake/schedule cost weighs more.",
		planeNP: 256,
		prepare: stencilWorkload(256, 32, 16, 4),
	},
	{
		name:    "fig6-nas256",
		why:     "The paper's Figure 6: six NAS kernels x {native, mlog, hydee} at np=256 through the RunExperiments pool, clustering as set-up: collectives, deep mailboxes, per-message logging, pool scheduling.",
		planeNP: 256,
		prepare: fig6Workload,
	},
	{
		name:    "ckpt-ec-churn64",
		why:     "HydEE, np=64 ring, 512 KiB seeded image per rank, checkpoint every step into an ec:4+2 store with one shard killed, one failure: bypasses the plane; only here checkpoint and erasure do the work.",
		planeNP: 64,
		prepare: ckptWorkload,
	},
	{
		name:    "serve-smalljobs",
		why:     "In-process hydee-serve over HTTP, closed loop of 2 clients posting 2-run np=16 jobs and reading SSE to the summary: submit-to-summary latency; HTTP, exporters, spec resolution and small simulations.",
		planeNP: 16,
		prepare: serveWorkload,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Virtual-time digest.

// digestResult folds one run's virtual-time outputs into w.
func digestResult(w io.Writer, res *hydee.Result) {
	fmt.Fprintf(w, "makespan=%d totals=%+v rounds=%+v store=%+v results=%v\n",
		res.Makespan, res.Totals, res.Rounds, res.StoreStats, res.Results)
}

func digestSummary(w io.Writer, s *hydee.ExperimentSummary) {
	fmt.Fprintf(w, "%s/%s np=%d makespan=%d totals=%+v rounds=%+v store=%+v results=%v\n",
		s.App, s.Proto, s.NP, s.Makespan, s.Totals, s.Rounds, s.Store, s.Digests)
}

func hexDigest(sum []byte) string { return hex.EncodeToString(sum[:12]) }

// countsOf extracts the exact counts the per-layer tables report.
func countsOf(c map[string]int64, t hydee.Metrics, rounds []hydee.RecoveryStats, st hydee.StoreStats) {
	c["transport.app_msgs"] += t.AppSends
	c["core.logged_msgs"] += t.LoggedMsgs
	c["core.logged_bytes"] += t.LoggedBytes
	c["core.piggy_bytes"] += t.PiggyBytes
	c["core.ctl_msgs"] += t.CtlMsgs
	c["core.replayed_sends"] += t.ReplayedSends
	c["core.suppressed"] += t.Suppressed
	c["mpi.rounds"] += int64(len(rounds))
	for _, r := range rounds {
		c["mpi.rolled_back_ranks"] += int64(r.RolledBack)
	}
	c["checkpoint.saves"] += st.Saves
	c["checkpoint.saved_bytes"] += st.SavedBytes
	c["checkpoint.loads"] += st.Loads
	if q := int64(st.MaxQueue); q > c["checkpoint.max_queue_vt_ns"] {
		c["checkpoint.max_queue_vt_ns"] = q
	}
	// Plane mutations the run issued, estimated from outside: every message
	// (application, control, checkpoint marker) is one Send, one Recv entry
	// and one delivery, each of which refreshes the plane once.
	c["transport.est_mutations"] += 3 * (t.AppSends - t.Suppressed + t.CtlMsgs)
}

// ---------------------------------------------------------------------------
// Halo workloads: one engine run per timed region.

// haloRun is the common body of the stencil and checkpoint workloads: the
// halo program under HydEE on contiguous clusters, with one failure.
type haloRun struct {
	spec                   haloSpec
	clusterSize, ckptEvery int
	// victim fails once it has completed failAfter checkpoints.
	victim, failAfter int
	// newStore builds the run's store (nil = the engine's default free
	// in-memory store); the returned func reports and checks store-specific
	// counts once the run is over.
	newStore func() (hydee.Store, func(o *outcome), error)
}

func (hr haloRun) job(e env) (*job, error) {
	want := hr.spec.oracle()
	opts := []hydee.Option{
		hydee.WithTopology(hydee.NewTopology(blockAssign(hr.spec.np, hr.clusterSize))),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithCheckpointEvery(hr.ckptEvery),
		hydee.WithFailureEvents(hydee.FailureEvent{Ranks: []int{hr.victim}, When: hydee.FailureTrigger{AfterCheckpoints: hr.failAfter}}),
	}
	var rt *runTrace
	prot := hydee.HydEE()
	if e.tr != nil {
		rt = e.tr.newRunTrace(hr.spec.np)
		prot = rt.wrapProtocol(prot)
		opts = append(opts, hydee.WithObserver(&rt.stamps))
	}
	opts = append(opts, hydee.WithProtocol(prot))
	var storeCounts func(*outcome)
	if hr.newStore != nil || rt != nil {
		var st hydee.Store = checkpoint.NewMemStore(0, 0)
		if hr.newStore != nil {
			var err error
			if st, storeCounts, err = hr.newStore(); err != nil {
				return nil, err
			}
		}
		if rt != nil {
			st = rt.wrapStore(st)
		}
		opts = append(opts, hydee.WithStore(st))
	}
	eng, err := hydee.New(opts...)
	if err != nil {
		return nil, err
	}
	prog := hr.spec.program(rt)
	return &job{run: func() (*outcome, error) {
		o := &outcome{Attempted: 1, Counts: map[string]int64{}}
		if rt != nil {
			rt.start("mpi.run", -1)
		}
		t0 := time.Now()
		res, err := eng.Run(context.Background(), prog)
		returned := time.Now()
		o.JobMS = []float64{ms(returned.Sub(t0))}
		if err != nil {
			o.fail("run: %v", err)
			return o, nil
		}
		if rt != nil {
			rt.finish()
		}
		o.Msgs = res.Totals.AppDelivers
		h := sha256.New()
		digestResult(h, res)
		o.VTDigest = hexDigest(h.Sum(nil))
		if err := sameResults(res.Results, want); err != nil {
			o.fail("recovered results differ from the failure-free oracle: %v", err)
		}
		if len(res.Rounds) != 1 || res.Rounds[0].RolledBack != hr.clusterSize {
			o.fail("workload drifted: rounds %+v, want one round rolling back %d ranks", res.Rounds, hr.clusterSize)
		}
		countsOf(o.Counts, res.Totals, res.Rounds, res.StoreStats)
		// Checkpoint markers are plane traffic the protocol totals do not
		// count: each checkpoint sends one to every other scope member.
		o.Counts["transport.est_mutations"] += 3 * res.Totals.Checkpoints * int64(hr.clusterSize-1)
		if storeCounts != nil {
			storeCounts(o)
		}
		if rt != nil {
			o.Layer = haloLayer(e.tr, rt, returned)
		}
		return o, nil
	}}, nil
}

// haloLayer derives the per-run layer metrics of a traced halo run.
func haloLayer(tr *tracer, rt *runTrace, returned time.Time) map[string]float64 {
	l := map[string]float64{}
	rankWall := float64(tr.agg("apps.rank_wall").Sum)
	send, recv, ckpt := tr.agg("mpi.send_call"), tr.agg("mpi.recv_call"), tr.agg("mpi.checkpoint_call")
	pre := tr.agg("core.presend")
	l["mpi.send_call_ns"] = send.workNS()
	l["mpi.recv_call_ns"] = recv.meanNS()
	l["mpi.checkpoint_call_ms"] = ckpt.meanNS() / 1e6
	l["mpi.send_self_ns"] = send.workNS() - pre.workNS()
	if rankWall > 0 {
		l["mpi.recv_wait_share"] = float64(recv.Sum) / rankWall
		l["apps.self_share"] = 1 - float64(send.Sum+recv.Sum+ckpt.Sum)/rankWall
	}
	s := &rt.stamps
	l["mpi.fail_to_recovery_start_ms"] = median(s.failToRecStart)
	l["mpi.recovery_start_to_end_ms"] = median(s.recStartToEnd)
	if !s.lastFinished.IsZero() {
		l["mpi.run_teardown_ms"] = ms(returned.Sub(s.lastFinished))
	}
	stats := tr.spanStats()
	coreLayer(tr, stats, l, rankWall)
	storeLayer(stats, rt.store, l)
	return l
}

// coreLayer reports the engine-hook aggregates.
func coreLayer(tr *tracer, stats map[string]*spanStat, l map[string]float64, rankWall float64) {
	pre, del, ctl := tr.agg("core.presend"), tr.agg("core.ondeliver"), tr.agg("core.onctl")
	ck, rs := tr.agg("core.oncheckpoint"), tr.agg("core.onrestore")
	l["core.presend_ns"] = pre.workNS()
	l["core.ondeliver_ns"] = del.workNS()
	l["core.onctl_ns"] = ctl.workNS()
	l["core.oncheckpoint_us"] = ck.workNS() / 1e3
	l["core.onrestore_ms"] = rs.meanNS() / 1e6
	if rankWall > 0 {
		l["core.hook_share"] = float64(pre.workSum()+del.workSum()+ctl.workSum()+ck.workSum()+rs.workSum()) / rankWall
	}
	if st := stats["core.recovery-run"]; st != nil {
		l["core.recovery_run_ms"] = median(st.durs)
	}
}

// storeLayer reports the Save/Load spans of a traced store.
func storeLayer(stats map[string]*spanStat, st *timedStore, l map[string]float64) {
	if sv := stats["checkpoint.save"]; sv != nil {
		l["checkpoint.save_ms_p50"] = median(sv.durs)
		l["checkpoint.save_ms_p99"] = percentile(sv.durs, 99)
		if sv.SumMS > 0 && st != nil {
			l["checkpoint.save_mb_per_s"] = float64(st.realBytes.Load()) / 1e6 / (sv.SumMS / 1e3)
		}
		l["checkpoint.store_ms"] += sv.SumMS
	}
	if ld := stats["checkpoint.load"]; ld != nil {
		l["checkpoint.load_ms_p50"] = median(ld.durs)
		l["checkpoint.store_ms"] += ld.SumMS
	}
}

// stencilWorkload is the torus halo exchange with one failure after the
// victim's first checkpoint. The seed picks the victim.
func stencilWorkload(fullNP, fullClusterSize, iters, ckptEvery int) func(env) (*job, error) {
	return func(e env) (*job, error) {
		np, clusterSize := fullNP, fullClusterSize
		if e.tiny {
			np, clusterSize = 16, 4
		}
		rng := rand.New(rand.NewSource(e.seed))
		rows, cols := grid(np)
		return haloRun{
			spec: haloSpec{
				np: np, iters: iters, msgBytes: 256,
				pairs: torusPairs(rows, cols),
				image: func(int) []byte { return nil },
			},
			clusterSize: clusterSize,
			ckptEvery:   ckptEvery,
			victim:      rng.Intn(np),
			failAfter:   1,
		}.job(e)
	}
}

// ckptWorkload is the checkpoint/erasure workload: a ring whose ranks each
// carry a seeded opaque image, a checkpoint every step into an erasure-
// coded store of six shards, one of which is killed a quarter into the run,
// and one failure half way. Fragment groups are placed round-robin by rank,
// so the failed cluster's restores are a mix of healthy loads and loads
// that have to reconstruct around the dead shard. The seed picks the image
// bytes, the victim and the shard that dies.
//
// Storage is free in virtual time (no bandwidth model) and there is one
// failure, not several: with a bandwidth model a failure lands in the
// middle of a checkpoint wave, and with several failures rounds interact;
// on both the simulator's outputs were found to vary from run to run
// (README.md, "Known nondeterminism"), and a workload may only use inputs
// on which no operation fails. The host-side work of a save or a load —
// encode, split, marshal, clone, reconstruct — is the same either way.
func ckptWorkload(e env) (*job, error) {
	const ecData, ecParity = 4, 2
	np, clusterSize, iters, imageBytes := 64, 8, 24, 512<<10
	if e.tiny {
		np, iters, imageBytes = 16, 12, 16<<10
	}
	rng := rand.New(rand.NewSource(e.seed))
	images := seededImages(rng.Int63(), np, imageBytes)
	deadShard := rng.Intn(ecData + ecParity)
	victim := rng.Intn(np)
	// A step takes ~10us of virtual time; the shard dies around step 6.
	killVT := hydee.Time(60 * hydee.Microsecond)
	return haloRun{
		spec: haloSpec{
			np: np, iters: iters, msgBytes: 1 << 10,
			pairs: ringPairs(np),
			image: func(rank int) []byte { return images[rank] },
		},
		clusterSize: clusterSize,
		ckptEvery:   1,
		victim:      victim,
		failAfter:   iters / 2,
		newStore: func() (hydee.Store, func(*outcome), error) {
			ec, err := checkpoint.NewECStore(ecData, ecParity, 0, 0, nil)
			if err != nil {
				return nil, nil, err
			}
			st, err := hydee.NewFaultyStore(ec, hydee.ShardFault{Shard: deadShard, AtVT: killVT, Kind: hydee.FaultKill})
			if err != nil {
				return nil, nil, err
			}
			return st, func(o *outcome) {
				degraded := ec.DegradedLoads()
				o.Counts["checkpoint.degraded_loads"] = degraded
				if healthy := o.Counts["checkpoint.loads"] - degraded; degraded == 0 || healthy == 0 {
					o.fail("workload drifted: %d degraded and %d healthy loads around dead shard %d, want both kinds", degraded, healthy, deadShard)
				}
			}, nil
		},
	}.job(e)
}

// ---------------------------------------------------------------------------
// Host accounting.

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostInfo is recorded with every result.
type hostInfo struct {
	GoVersion  string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

// benchProcs is the GOMAXPROCS every measured process runs with: the
// host's cores, capped so results from a larger box stay comparable.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

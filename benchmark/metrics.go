package main

// The metric tables. BENCHMARK.json lists the same names, units,
// directions and bounds (bench_test.go checks the two agree); the "moves"
// column — which end-to-end metric, on which workload, a per-layer metric
// is expected to move — has no place in BENCHMARK.json's fixed schema, so
// it lives here and in README.md.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Floor is the absolute change, in the metric's unit, below which
	// -compare calls no regression whatever the share: a set-up of a few
	// milliseconds moves by a quarter on scheduling noise alone.
	// BENCHMARK.json's schema has no place for it, so the driver applies
	// Bound alone.
	Floor float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
}

// endToEnd are measured with tracing off, one value per timed rep (a fresh
// process each), reported as the median over the run's reps. A "job" is
// the unit of work a user submits: one Engine.Run on the stencil and
// checkpoint workloads, one whole sweep on fig6-nas256, one HTTP job on
// serve-smalljobs (the only workload with many jobs per rep, so the only
// one where the latency percentiles differ from wall_s).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.050},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

const (
	onPlane  = "wall_s, sim_msgs_per_s, cpu_s on stencil1024-onefail and fig6-nas256; weakly stencil256-long; flat on ckpt-ec-churn64, serve-smalljobs"
	onRounds = "wall_s on stencil1024-onefail, stencil256-long (recv wait) and ckpt-ec-churn64 (its one round)"
	onCore   = "wall_s on fig6-nas256 (mlog and hydee runs); flat elsewhere"
	onStore  = "wall_s, peak_rss_mb on ckpt-ec-churn64 only"
	onPool   = "wall_s on fig6-nas256 only"
	onServe  = "job_latency_p50_ms, job_latency_p90_ms, jobs_per_s on serve-smalljobs"
)

// perLayer are produced by the traced pass only: probes of single layers,
// aggregates of the timing wrappers, and exact counts.
var perLayer = []metricDef{
	// transport — the gated delivery plane.
	{Name: "transport.ns_per_mutation_np16", Unit: "ns", Better: "lower", Moves: "cpu_s, job_latency_p50_ms on serve-smalljobs (np=16 jobs)"},
	{Name: "transport.ns_per_mutation_np64", Unit: "ns", Better: "lower", Moves: onPlane},
	{Name: "transport.ns_per_mutation_np256", Unit: "ns", Better: "lower", Moves: onPlane},
	{Name: "transport.ns_per_mutation_np1024", Unit: "ns", Better: "lower", Moves: onPlane},
	{Name: "transport.ns_per_mutation_np4096", Unit: "ns", Better: "lower", Moves: onPlane},
	{Name: "transport.mutation_scaling_4096_over_64", Unit: "ratio", Better: "lower", Moves: onPlane},
	{Name: "transport.await_turn_ns", Unit: "ns", Better: "lower", Moves: "wall_s on ckpt-ec-churn64"},
	{Name: "transport.app_msgs", Unit: "count", Better: "lower", Moves: onPlane},
	{Name: "transport.est_share", Unit: "share", Better: "lower", Moves: onPlane},
	// mpi — rank runtime and supervisor.
	{Name: "mpi.send_call_ns", Unit: "ns", Better: "lower", Moves: onRounds},
	{Name: "mpi.recv_call_ns", Unit: "ns", Better: "lower", Moves: onRounds},
	{Name: "mpi.recv_wait_share", Unit: "share", Better: "lower", Moves: onRounds},
	{Name: "mpi.checkpoint_call_ms", Unit: "ms", Better: "lower", Moves: onRounds},
	{Name: "mpi.send_self_ns", Unit: "ns", Better: "lower", Moves: onRounds},
	{Name: "mpi.fail_to_recovery_start_ms", Unit: "ms", Better: "lower", Moves: onRounds},
	{Name: "mpi.recovery_start_to_end_ms", Unit: "ms", Better: "lower", Moves: onRounds},
	{Name: "mpi.rounds", Unit: "count", Better: "lower", Moves: onRounds},
	{Name: "mpi.rolled_back_ranks", Unit: "count", Better: "lower", Moves: onRounds},
	{Name: "mpi.run_teardown_ms", Unit: "ms", Better: "lower", Moves: onRounds},
	// core — protocol engines and the recovery coordinator.
	{Name: "core.presend_ns", Unit: "ns", Better: "lower", Moves: onCore},
	{Name: "core.ondeliver_ns", Unit: "ns", Better: "lower", Moves: onCore},
	{Name: "core.onctl_ns", Unit: "ns", Better: "lower", Moves: onCore},
	{Name: "core.oncheckpoint_us", Unit: "us", Better: "lower", Moves: onCore},
	{Name: "core.onrestore_ms", Unit: "ms", Better: "lower", Moves: onCore},
	{Name: "core.recovery_run_ms", Unit: "ms", Better: "lower", Moves: onCore},
	{Name: "core.hook_share", Unit: "share", Better: "lower", Moves: onCore},
	{Name: "core.logged_msgs", Unit: "count", Better: "lower", Moves: onCore},
	{Name: "core.logged_bytes", Unit: "count", Better: "lower", Moves: onCore},
	{Name: "core.piggy_bytes", Unit: "count", Better: "lower", Moves: onCore},
	{Name: "core.ctl_msgs", Unit: "count", Better: "lower", Moves: onCore},
	{Name: "core.replayed_sends", Unit: "count", Better: "lower", Moves: onCore},
	{Name: "core.suppressed", Unit: "count", Better: "lower", Moves: onCore},
	// checkpoint — stores and the snapshot/fragment codec.
	{Name: "checkpoint.save_ms_p50", Unit: "ms", Better: "lower", Moves: onStore},
	{Name: "checkpoint.save_ms_p99", Unit: "ms", Better: "lower", Moves: onStore},
	{Name: "checkpoint.load_ms_p50", Unit: "ms", Better: "lower", Moves: onStore},
	{Name: "checkpoint.save_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onStore},
	{Name: "checkpoint.store_share", Unit: "share", Better: "lower", Moves: onStore},
	{Name: "checkpoint.saves", Unit: "count", Better: "lower", Moves: onStore},
	{Name: "checkpoint.saved_bytes", Unit: "count", Better: "lower", Moves: onStore},
	{Name: "checkpoint.loads", Unit: "count", Better: "lower", Moves: onStore},
	{Name: "checkpoint.degraded_loads", Unit: "count", Better: "lower", Moves: onStore},
	{Name: "checkpoint.max_queue_vt_ns", Unit: "ns", Better: "lower", Moves: onStore},
	{Name: "checkpoint.encode_snapshot_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onStore},
	{Name: "checkpoint.decode_snapshot_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onStore},
	{Name: "checkpoint.save_us_mem", Unit: "us", Better: "lower", Moves: onStore},
	{Name: "checkpoint.save_us_sharded", Unit: "us", Better: "lower", Moves: onStore},
	{Name: "checkpoint.save_us_ec", Unit: "us", Better: "lower", Moves: onStore},
	{Name: "checkpoint.save_us_replica", Unit: "us", Better: "lower", Moves: onStore},
	// erasure — the k-of-n codec.
	{Name: "erasure.split_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onStore},
	{Name: "erasure.reconstruct_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onStore},
	// harness — the RunAll worker pool.
	{Name: "harness.pool_idle_share", Unit: "share", Better: "lower", Moves: onPool},
	{Name: "harness.runs", Unit: "count", Better: "lower", Moves: onPool},
	// apps — the NAS kernels (which kernel's traffic a fig6 gain came from).
	{Name: "apps.run_wall_ms_bt", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.run_wall_ms_cg", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.run_wall_ms_ft", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.run_wall_ms_lu", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.run_wall_ms_mg", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.run_wall_ms_sp", Unit: "ms", Better: "lower", Moves: onPool},
	{Name: "apps.self_share", Unit: "share", Better: "lower", Moves: "cpu_s on stencil1024-onefail, stencil256-long, ckpt-ec-churn64"},
	// graph — the clustering tool.
	{Name: "graph.cluster_ms_np256", Unit: "ms", Better: "lower", Moves: "setup_s on fig6-nas256"},
	// export — the root-package exporters.
	{Name: "export.fanout_ns_per_event_0sub", Unit: "ns", Better: "lower", Moves: onServe},
	{Name: "export.fanout_ns_per_event_4sub", Unit: "ns", Better: "lower", Moves: onServe},
	{Name: "export.jsonl_ns_per_event", Unit: "ns", Better: "lower", Moves: onServe},
	{Name: "export.events", Unit: "count", Better: "lower", Moves: onServe},
	// server — the sweep service.
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower", Moves: onServe},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: onServe},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower", Moves: onServe},
	{Name: "server.job_latency_p99_ms", Unit: "ms", Better: "lower", Moves: onServe},
	{Name: "server.sse_events_per_job", Unit: "count", Better: "lower", Moves: onServe},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: onServe},
	{Name: "server.spec_resolve_us", Unit: "us", Better: "lower", Moves: onServe},
	// the tracing itself.
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced wall_s over untraced wall_s, minus one"},
}

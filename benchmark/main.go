// Command benchmark is the repository's measuring stick: five named
// workloads, end-to-end metrics measured with tracing off, and a separate
// traced pass that attributes host time to each layer from the outside.
// README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract the driver runs it by.
//
//	go run . -workload stencil256-long -seconds 20       # one workload, driver style
//	go run . -reps 5 -out out/head.jsonl                 # all workloads
//	go run . -trace 1 -workload ckpt-ec-churn64          # per-layer metrics + span file
//	go run . -compare out/a.jsonl out/b.jsonl            # medians, deltas, bounds
//
// Every timed rep runs in a fresh child process (-run-one), so CPU time and
// peak memory are per rep and every rep is equally cold.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden maps scale ("full", "tiny") and workload to the vt_digest at the
// default seed.
var golden map[string]map[string]string

const defaultSeed = 1

// repRequest asks for one rep: set-up plus one timed region.
type repRequest struct {
	workload string
	seed     int64
	// tiny selects the test scale. Only in-process reps (the tests and
	// -update-golden) set it; a child process always runs the full scale.
	tiny bool
	// traceOut, when set, makes the rep a traced one and names its span file.
	traceOut string
	stamped  bool
}

// repResult is what one rep measured.
type repResult struct {
	SetupS    float64  `json:"setup_s"`
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Host      hostInfo `json:"host"`
	outcome
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// runOne executes one rep in this process. started is when the process
// (or, in tests, the rep) began: set-up time counts from there, so process
// start-up, input generation and everything else a later change might move
// out of the timed region shows in setup_s.
func runOne(req repRequest, started time.Time) (*repResult, error) {
	w, ok := workloadByName(req.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.workload)
	}
	runtime.GOMAXPROCS(benchProcs())
	e := env{seed: req.seed, tiny: req.tiny, stamped: req.stamped}
	if req.traceOut != "" {
		e.tr = newTracer()
	}
	j, err := w.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if j.cleanup != nil {
		defer j.cleanup()
	}
	runtime.GC()
	res := &repResult{Host: host()}
	res.SetupS = time.Since(started).Seconds()

	cpu0, t0 := cpuSeconds(), time.Now()
	o, err := j.run()
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.PeakRSSMB = peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if want := golden[scaleName(req.tiny)][w.name]; req.seed == defaultSeed && want != "" && o.Failed == 0 && o.VTDigest != want {
		o.fail("vt_digest %s differs from golden.json's %s: a virtual-time output changed", o.VTDigest, want)
	}
	res.outcome = *o
	if e.tr != nil {
		if err := e.tr.write(req.traceOut, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func host() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// spawnRep runs one rep in a fresh child process and decodes the result
// it prints.
func spawnRep(req repRequest) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-run-one", req.workload,
		"-seed", strconv.FormatInt(req.seed, 10),
		"-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if req.traceOut != "" {
		args = append(args, "-trace-out", req.traceOut)
	}
	if req.stamped {
		args = append(args, "-stamped")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child: %w", req.workload, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", req.workload, err)
	}
	return &res, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one measurement of one workload: what -out appends and
// -compare reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the per-rep values behind each end-to-end median.
	Samples  map[string][]float64 `json:"samples,omitempty"`
	VTDigest string               `json:"vt_digest"`
	Counts   map[string]int64     `json:"counts,omitempty"`
	Errors   []string             `json:"errors,omitempty"`
}

// measureCfg is how much to measure.
type measureCfg struct {
	seed int64
	tiny bool
	// seconds > 0 bounds the whole rep loop (set-up included) in host
	// time; otherwise exactly reps reps run.
	seconds float64
	reps    int
	outdir  string
	rep     func(repRequest) (*repResult, error)
}

// endToEndOf derives one rep's end-to-end values.
func endToEndOf(r *repResult) map[string]float64 {
	return map[string]float64{
		"wall_s":             r.WallS,
		"sim_msgs_per_s":     float64(r.Msgs) / r.WallS,
		"cpu_s":              r.CPUS,
		"peak_rss_mb":        r.PeakRSSMB,
		"setup_s":            r.SetupS,
		"jobs_per_s":         float64(len(r.JobMS)) / r.WallS,
		"job_latency_p50_ms": percentile(r.JobMS, 50),
		"job_latency_p90_ms": percentile(r.JobMS, 90),
	}
}

// absorb adds a rep's correctness outcome to the record. Every rep of a
// measurement must produce the same virtual-time digest.
func (rec *record) absorb(r *repResult) {
	rec.Host = r.Host
	rec.Attempted += r.Attempted
	rec.Failed += r.Failed
	rec.Errors = append(rec.Errors, r.Errors...)
	switch {
	case rec.VTDigest == "":
		rec.VTDigest = r.VTDigest
	case r.VTDigest != rec.VTDigest:
		rec.Failed++
		rec.Errors = append(rec.Errors, fmt.Sprintf("vt_digest %s differs from an earlier rep's %s", r.VTDigest, rec.VTDigest))
	}
}

// measure runs the untraced reps of one workload and reports the median
// of each end-to-end metric.
func measure(w workload, cfg measureCfg) (*record, error) {
	rec := &record{Workload: w.name, Seed: cfg.seed, Metrics: map[string]metricValue{}, Samples: map[string][]float64{}}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if cfg.seconds > 0 {
			if i > 0 && (time.Since(start)+last).Seconds() > cfg.seconds {
				break
			}
		} else if i >= cfg.reps {
			break
		}
		t0 := time.Now()
		r, err := cfg.rep(repRequest{workload: w.name, seed: cfg.seed, tiny: cfg.tiny})
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		rec.absorb(r)
		rec.Counts = r.Counts
		for name, v := range endToEndOf(r) {
			rec.Samples[name] = append(rec.Samples[name], v)
		}
	}
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metricValue{median(rec.Samples[m.Name]), m.Unit}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// measureTraced runs the traced pass of one workload: one untraced rep as
// the reference and one traced rep (which writes the span file). probes
// holds the standalone probes' metrics, which are the same for every
// workload.
func measureTraced(w workload, cfg measureCfg, probes map[string]float64) (*record, error) {
	rec := &record{Workload: w.name, Seed: cfg.seed, Trace: true, Metrics: map[string]metricValue{}}
	plain, err := cfg.rep(repRequest{workload: w.name, seed: cfg.seed, tiny: cfg.tiny, stamped: true})
	if err != nil {
		return nil, err
	}
	rec.absorb(plain)
	traced, err := cfg.rep(repRequest{
		workload: w.name, seed: cfg.seed, tiny: cfg.tiny,
		traceOut: filepath.Join(cfg.outdir, "trace-"+w.name+".json"),
	})
	if err != nil {
		return nil, err
	}
	rec.absorb(traced)
	rec.Counts = traced.Counts

	l := map[string]float64{}
	for name, v := range probes {
		l[name] = v
	}
	for name, v := range plain.Layer { // harness pool stamps of the untraced sweep
		l[name] = v
	}
	for name, v := range traced.Layer {
		l[name] = v
	}
	for name, v := range traced.Counts {
		l[name] = float64(v)
	}
	// The plane's estimated share of the untraced run's CPU time: probe cost
	// per mutation at the workload's size times the mutations it issued.
	l["transport.est_share"] = l["transport.ns_per_mutation_np"+strconv.Itoa(w.planeNP)] * l["transport.est_mutations"] / (plain.CPUS * 1e9)
	// Saves are admitted one at a time in virtual order, so store time is on
	// the blocking path: its share of the run's wall time.
	l["checkpoint.store_share"] = l["checkpoint.store_ms"] / 1e3 / traced.WallS
	l["trace_overhead_pct"] = (traced.WallS/plain.WallS - 1) * 100
	for _, m := range perLayer {
		v := l[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// printRecord prints every metric of the record by name, with its unit.
func printRecord(rec *record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Printf("%s  seed=%d trace=%v  %s nproc=%d GOMAXPROCS=%d commit=%s\n", rec.Workload, rec.Seed, rec.Trace,
		rec.Host.GoVersion, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.Commit)
	for _, m := range defs {
		v := rec.Metrics[m.Name]
		line := fmt.Sprintf("  %-42s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if s := rec.Samples[m.Name]; len(s) >= 2 {
			q1, q3 := quartiles(s)
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n=%d", q1, q3, len(s))
		} else if len(s) == 1 {
			line += "  n=1"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("  %-42s %14.6g %-6s  (%d failed of %d attempted)\n", "failed_share", float64(rec.Failed)/float64(max(rec.Attempted, 1)), "share", rec.Failed, rec.Attempted)
	fmt.Printf("  vt_digest %s\n", rec.VTDigest)
	for _, e := range rec.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	started := time.Now()
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all); one of "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", defaultSeed, "workload seed: picks victim ranks, image bytes, job order")
		seconds      = flag.Float64("seconds", 0, "bound the rep loop of each workload to this many host seconds (0 = use -reps)")
		reps         = flag.Int("reps", 5, "timed reps per workload when -seconds is 0")
		trace        = flag.Int("trace", 0, "1 = run the traced pass and report per-layer metrics instead of end-to-end ones")
		out          = flag.String("out", "", "append one JSON record per measured workload to this file (input of -compare)")
		outdir       = flag.String("outdir", "out", "directory for the traced pass's span files")
		compare      = flag.Bool("compare", false, "compare the records of two -out files given as arguments (one file: print its spreads)")
		updateGolden = flag.String("update-golden", "", "re-measure the default-seed vt_digests and write them to this golden.json path")
		runOneName   = flag.String("run-one", "", "internal: run one rep of this workload and print its result as JSON")
		spawnedAt    = flag.Int64("spawned-at", 0, "internal: when the parent started this process (unix ns)")
		traceOut     = flag.String("trace-out", "", "internal: make the rep a traced one and write its spans here")
		stamped      = flag.Bool("stamped", false, "internal: record harness pool stamps on an untraced rep")
	)
	flag.Parse()
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}

	switch {
	case *runOneName != "":
		if *spawnedAt > 0 {
			started = time.Unix(0, *spawnedAt)
		}
		res, err := runOne(repRequest{workload: *runOneName, seed: *seed, traceOut: *traceOut, stamped: *stamped}, started)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	case *compare:
		ok, err := compareFiles(os.Stdout, flag.Args())
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *updateGolden != "":
		if err := writeGolden(*updateGolden); err != nil {
			fatal(err)
		}
		return
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		selected = []workload{w}
	}
	cfg := measureCfg{seed: *seed, seconds: *seconds, reps: *reps, outdir: *outdir, rep: spawnRep}
	failed := false
	var last *record
	probes := map[string]float64{}
	if *trace == 1 {
		if err := runProbes(probes); err != nil {
			fatal(fmt.Errorf("probes: %w", err))
		}
	}
	for _, w := range selected {
		var rec *record
		var err error
		if *trace == 1 {
			rec, err = measureTraced(w, cfg, probes)
		} else {
			rec, err = measure(w, cfg)
		}
		if err != nil {
			fatal(err)
		}
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		failed = failed || !rec.Correct
		last = rec
	}
	if len(selected) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, max(last.Attempted, 1), last.Failed, last.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// writeGolden measures every workload once per scale at the default seed,
// in process, and writes the digests.
func writeGolden(path string) error {
	out := map[string]map[string]string{}
	for _, tiny := range []bool{false, true} {
		golden[scaleName(tiny)] = nil // the stale value must not fail the run
		out[scaleName(tiny)] = map[string]string{}
		for _, w := range workloads {
			r, err := runOne(repRequest{workload: w.name, seed: defaultSeed, tiny: tiny}, time.Now())
			if err != nil {
				return err
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s: %s", w.name, strings.Join(r.Errors, "; "))
			}
			out[scaleName(tiny)][w.name] = r.VTDigest
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hydee"
)

func loadGolden(t *testing.T) {
	t.Helper()
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatalf("golden.json: %v", err)
	}
}

// inProcess runs a rep in the test process instead of a child.
func inProcess(req repRequest) (*repResult, error) { return runOne(req, time.Now()) }

// TestTinyWorkloads drives every workload at the tiny scale through the
// code path the full benchmark takes — untraced reps, the traced pass with
// its wrappers, the digest gate against golden.json — and checks that both
// passes report every metric BENCHMARK.json promises.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	loadGolden(t)
	probes := map[string]float64{}
	if err := runProbes(probes); err != nil {
		t.Fatalf("probes: %v", err)
	}
	if r := probes["transport.mutation_scaling_4096_over_64"]; r <= 1 {
		t.Errorf("plane probe: mutation cost at np=4096 is %.2fx the np=64 cost, want > 1", r)
	}
	cfg := measureCfg{seed: defaultSeed, tiny: true, reps: 2, outdir: t.TempDir(), rep: inProcess}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if golden["tiny"][w.name] == "" {
				t.Fatalf("golden.json has no tiny digest for %s", w.name)
			}
			rec, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("untraced pass failed: %v", rec.Errors)
			}
			for _, m := range endToEnd {
				if v := rec.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
			traced, err := measureTraced(w, cfg, probes)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced pass failed: %v", traced.Errors)
			}
			if traced.VTDigest != rec.VTDigest {
				t.Errorf("traced vt_digest %s, untraced %s", traced.VTDigest, rec.VTDigest)
			}
			for _, m := range perLayer {
				if _, ok := traced.Metrics[m.Name]; !ok {
					t.Errorf("traced pass did not report %s", m.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outdir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestWrapperTransparency: a run under the timing Protocol, Store and
// Observer wrappers and the timed program produces the same virtual-time
// digest as one without, at a seed golden.json does not cover.
func TestWrapperTransparency(t *testing.T) {
	loadGolden(t)
	for _, name := range []string{"stencil1024-onefail", "ckpt-ec-churn64"} {
		req := repRequest{workload: name, seed: 7, tiny: true}
		plain, err := inProcess(req)
		if err != nil {
			t.Fatal(err)
		}
		req.traceOut = filepath.Join(t.TempDir(), "trace.json")
		traced, err := inProcess(req)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Failed+traced.Failed > 0 {
			t.Fatalf("%s: runs failed: %v %v", name, plain.Errors, traced.Errors)
		}
		if plain.VTDigest != traced.VTDigest {
			t.Errorf("%s: vt_digest %s with the wrappers, %s without", name, traced.VTDigest, plain.VTDigest)
		}
		if traced.Layer["core.presend_ns"] <= 0 || traced.Layer["mpi.recv_call_ns"] <= 0 {
			t.Errorf("%s: the wrappers timed nothing: %v", name, traced.Layer)
		}
	}
}

// TestHaloOracle: the sequential reference model agrees with a
// failure-free simulated run of the benchmark-owned program.
func TestHaloOracle(t *testing.T) {
	images := seededImages(3, 16, 1<<10)
	for name, spec := range map[string]haloSpec{
		"torus": {np: 16, iters: 3, msgBytes: 256, pairs: torusPairs(4, 4), image: func(int) []byte { return nil }},
		"ring":  {np: 16, iters: 5, msgBytes: 1 << 10, pairs: ringPairs(16), image: func(r int) []byte { return images[r] }},
	} {
		eng, err := hydee.New(
			hydee.WithTopology(hydee.NewTopology(blockAssign(16, 4))),
			hydee.WithProtocol(hydee.HydEE()),
			hydee.WithCheckpointEvery(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), spec.program(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(res.Results, spec.oracle()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompare: a change inside its bound passes, one beyond it fails, a
// pair noisier than the bound is unresolved, set-up jitter below the
// absolute floor passes, and a changed digest, a side without data and a
// workload missing from one file fail.
func TestCompare(t *testing.T) {
	write := func(name, workload string, wall, setup []float64, digest string) string {
		rec := record{Workload: workload, Seed: 1, Correct: true, VTDigest: digest,
			Metrics: map[string]metricValue{}, Samples: map[string][]float64{}}
		for _, m := range endToEnd {
			s := wall
			if m.Name == "setup_s" {
				s = setup
			}
			if len(s) == 0 {
				continue
			}
			rec.Samples[m.Name] = s
			rec.Metrics[m.Name] = metricValue{median(s), m.Unit}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := appendRecord(path, &rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const wl = "stencil256-long"
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	setup := []float64{0.0050, 0.0051, 0.0049, 0.0050, 0.0052}
	base := write("a", wl, steady, setup, "d1")
	for _, c := range []struct {
		name   string
		other  string
		ok     bool
		expect string
	}{
		{"same", write("b", wl, []float64{1.01, 1.00, 1.02, 0.99, 1.01}, setup, "d1"), true, "ok"},
		{"slower", write("c", wl, []float64{1.31, 1.30, 1.32, 1.29, 1.31}, setup, "d1"), false, "REGRESSION"},
		{"noisy", write("d", wl, []float64{0.7, 1.0, 1.4, 0.9, 1.2}, setup, "d1"), true, "unresolved"},
		{"digest", write("e", wl, steady, setup, "d2"), false, "MISMATCH"},
		// +40 % and a spread of 40 % on a 5 ms set-up: 2 ms, under the 50 ms floor.
		{"setup-jitter", write("f", wl, steady, []float64{0.0070, 0.0056, 0.0084, 0.0060, 0.0080}, "d1"), true, "ok"},
		{"setup-slower", write("g", wl, steady, []float64{0.100, 0.101, 0.099, 0.100, 0.102}, "d1"), false, "REGRESSION"},
		{"no-data", write("h", wl, nil, setup, "d1"), false, "NO DATA"},
		{"missing", write("i", "fig6-nas256", steady, setup, "d1"), false, "MISSING"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, []string{base, c.other})
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
		if c.name == "setup-jitter" && strings.Contains(out.String(), "unresolved") {
			t.Errorf("setup-jitter: a spread below the floor must not be unresolved:\n%s", out.String())
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the driver's schema and
// against the metric and workload tables this package measures by.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 {
		t.Errorf("command has %d elements", len(doc.Command))
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", doc.RunSeconds)
	}
	// 4 + 22 x workloads runs, each bounded by run_seconds plus the rep
	// that is in flight, must fit the driver's 3420 s with two builds.
	if total := (4 + 22*len(doc.Workloads)) * (doc.RunSeconds + 3); total > 3300 {
		t.Errorf("%d runs of ~%d s need %d s, over the driver's budget", 4+22*len(doc.Workloads), doc.RunSeconds+3, total)
	}

	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark (2..8 allowed)", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound != d.Bound):
				t.Errorf("%s: bound %v, want %v (in (0, 0.25])", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
	}
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(doc.EndToEnd))
	}
	if len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(doc.PerLayer))
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}

	// The prediction map: every per-layer metric names the end-to-end
	// metric and the workload it should move.
	for _, m := range perLayer {
		if strings.HasPrefix(m.Moves, "none:") {
			continue
		}
		var metricOK, workloadOK bool
		for _, e := range endToEnd {
			metricOK = metricOK || strings.Contains(m.Moves, e.Name)
		}
		for _, w := range workloads {
			workloadOK = workloadOK || strings.Contains(m.Moves, w.name)
		}
		if !metricOK || !workloadOK {
			t.Errorf("%s: prediction %q names no end-to-end metric or no workload", m.Name, m.Moves)
		}
	}
}

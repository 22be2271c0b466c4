package hydee_test

// Tests for the streaming observer exporters: JSONL event framing, the
// metrics summary, and context-carried wiring through sweep helpers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hydee"
)

func runWithExporter(t *testing.T, exp hydee.Exporter) {
	t.Helper()
	eng, err := hydee.New(failingEngineOpts(hydee.WithObserver(exp))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), hydee.StencilProgram(8, 4096)); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLExporter(t *testing.T) {
	var buf bytes.Buffer
	exp := hydee.NewJSONLExporter(&buf)
	runWithExporter(t, exp)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kind, _ := rec["kind"].(string)
		if kind == "" {
			t.Fatalf("line without kind: %q", sc.Text())
		}
		kinds[kind]++
		if kind == "recovery-end" {
			if _, ok := rec["rolled_back"]; !ok {
				t.Errorf("recovery-end line misses round stats: %q", sc.Text())
			}
		}
	}
	if kinds["run-start"] != 1 || kinds["run-complete"] != 1 {
		t.Errorf("run boundary lines: %v", kinds)
	}
	if kinds["checkpoint"] == 0 || kinds["failure"] != 1 || kinds["recovery-end"] != 1 {
		t.Errorf("lifecycle lines: %v", kinds)
	}
}

func TestMetricsExporter(t *testing.T) {
	var buf bytes.Buffer
	exp := hydee.NewMetricsExporter(&buf)
	runWithExporter(t, exp)
	runWithExporter(t, exp) // a second run accumulates
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	var m hydee.RunMetrics
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("summary %q: %v", buf.String(), err)
	}
	if m.Runs != 2 || m.Aborted != 0 {
		t.Errorf("runs = %d/%d aborted, want 2/0", m.Runs, m.Aborted)
	}
	if m.Failures != 2 || m.Recoveries != 2 || m.RolledBack != 4 {
		t.Errorf("failure accounting: %+v", m)
	}
	if m.Checkpoints == 0 || m.MaxMakespanVT <= 0 || m.SumMakespanVT < 2*m.MaxMakespanVT {
		t.Errorf("aggregates: %+v", m)
	}
}

// TestContextObserverReachesSweeps drives a parallel multi-spec sweep
// under a context-carried exporter — the -events wiring of the cmd
// binaries — and checks every run reported its lifecycle.
func TestContextObserverReachesSweeps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ctx, closeEvents, err := hydee.EventStreamSpec{Path: path}.Wire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k, err := hydee.KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	specs := []hydee.ExperimentSpec{
		{Kernel: k, Params: hydee.KernelParams{NP: 8, Iters: 2}, Proto: hydee.ProtoNative},
		{Kernel: k, Params: hydee.KernelParams{NP: 8, Iters: 2}, Proto: hydee.ProtoCoord},
	}
	if _, err := hydee.RunExperiments(ctx, specs, 2); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	starts, completes := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch rec.Kind {
		case "run-start":
			starts++
		case "run-complete":
			completes++
		}
	}
	if starts != len(specs) || completes != len(specs) {
		t.Errorf("observed %d starts / %d completes, want %d each", starts, completes, len(specs))
	}
}

// TestContextObserverComposes checks a context observer does not replace
// a run's own observer — both see the events — and that nil observers
// are ignored.
func TestContextObserverComposes(t *testing.T) {
	var own, viaCtx int
	ctx := hydee.ContextWithObserver(context.Background(), hydee.ObserverFunc(func(ev hydee.RunEvent) {
		viaCtx++
	}))
	ctx = hydee.ContextWithObserver(ctx, nil) // no-op
	eng, err := hydee.New(
		hydee.WithRanks(2),
		hydee.WithObserver(hydee.ObserverFunc(func(ev hydee.RunEvent) { own++ })),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, hydee.RingProgram(3, 64)); err != nil {
		t.Fatal(err)
	}
	if own == 0 || own != viaCtx {
		t.Errorf("own observer saw %d events, context observer %d; want equal and nonzero", own, viaCtx)
	}
}

// TestEventStreamDirSplitsPerRun drives a parallel sweep through a
// run-dir exporter and checks each run's lifecycle lands in its own file,
// internally consistent (one run id, run-start through run-complete).
func TestEventStreamDirSplitsPerRun(t *testing.T) {
	dir := t.TempDir()
	ctx, closeEvents, err := hydee.EventStreamSpec{Path: dir}.Wire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]hydee.ExperimentSpec, 3)
	for i := range specs {
		k, kerr := hydee.KernelByName("cg")
		if kerr != nil {
			t.Fatal(kerr)
		}
		specs[i] = hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: 8, Iters: 2 + i}, Proto: hydee.ProtoNative}
	}
	if _, err := hydee.RunExperiments(ctx, specs, 3); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specs) {
		t.Fatalf("got %d per-run files, want %d: %v", len(files), len(specs), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		runIDs := map[float64]bool{}
		kinds := map[string]int{}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s: bad line %q: %v", f, sc.Text(), err)
			}
			id, _ := rec["run"].(float64)
			runIDs[id] = true
			kinds[rec["kind"].(string)]++
		}
		if len(runIDs) != 1 {
			t.Errorf("%s: events of %d runs interleaved in one file", f, len(runIDs))
		}
		if kinds["run-start"] != 1 || kinds["run-complete"] != 1 {
			t.Errorf("%s: run boundaries %v", f, kinds)
		}
	}
}

// TestRunDirExportersConcurrent drives two independent run-dir exporters
// at once — the hydee-serve shape, one per concurrent job — and checks
// the streams stay disjoint: each directory holds its own runs' files
// and no event of one sweep leaks into the other's directory.
func TestRunDirExportersConcurrent(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	const runsPer = 3
	errs := make(chan error, len(dirs))
	for _, dir := range dirs {
		go func(dir string) {
			ctx, closeEvents, err := hydee.EventStreamSpec{Path: dir}.Wire(context.Background())
			if err != nil {
				errs <- err
				return
			}
			specs := make([]hydee.ExperimentSpec, runsPer)
			for i := range specs {
				k, kerr := hydee.KernelByName("cg")
				if kerr != nil {
					errs <- kerr
					return
				}
				specs[i] = hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: 8, Iters: 2}, Proto: hydee.ProtoNative}
			}
			if _, err := hydee.RunExperiments(ctx, specs, runsPer); err != nil {
				errs <- err
				return
			}
			errs <- closeEvents()
		}(dir)
	}
	for range dirs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]string{} // file base name → dir (run ids are process-global, so no overlap)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "run-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != runsPer {
			t.Fatalf("%s: %d per-run files, want %d", dir, len(files), runsPer)
		}
		for _, f := range files {
			base := filepath.Base(f)
			if other, dup := seen[base]; dup {
				t.Errorf("run file %s appears in both %s and %s", base, other, dir)
			}
			seen[base] = dir
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			starts, completes := 0, 0
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				var rec struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatalf("%s: bad line %q: %v", f, sc.Text(), err)
				}
				switch rec.Kind {
				case "run-start":
					starts++
				case "run-complete":
					completes++
				}
			}
			if starts != 1 || completes != 1 {
				t.Errorf("%s: %d starts / %d completes, want 1 each", f, starts, completes)
			}
		}
	}
}

// TestFanoutExporter covers the replay hub behind the SSE endpoint: a
// late subscriber replays the full history, a subscriber that never
// reads doesn't block OnEvent, cancel unblocks, and Close terminates
// every stream after its replay drains.
func TestFanoutExporter(t *testing.T) {
	hub := hydee.NewFanoutExporter()

	// A subscriber that never reads: OnEvent must not block on it.
	_, cancelStuck := hub.Subscribe()
	defer cancelStuck()

	live, cancelLive := hub.Subscribe()
	defer cancelLive()
	runWithExporter(t, hub)
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}

	var liveCount int
	for range live {
		liveCount++
	}
	if liveCount == 0 {
		t.Fatal("live subscriber saw no events")
	}
	if got := len(hub.Events()); got != liveCount {
		t.Errorf("retained %d events, subscriber saw %d", got, liveCount)
	}

	// Late subscriber, after Close: full replay, then the channel closes.
	late, cancelLate := hub.Subscribe()
	defer cancelLate()
	var lateCount int
	for range late {
		lateCount++
	}
	if lateCount != liveCount {
		t.Errorf("late subscriber replayed %d events, want %d", lateCount, liveCount)
	}

	// Cancel unblocks a subscriber promptly even though the hub is idle.
	ch, cancel := hub.Subscribe()
	drained := 0
	for range ch {
		drained++
		if drained == 1 {
			cancel()
		}
	}

	// The wire form matches the JSONL files byte for byte.
	ev := hub.Events()[0]
	data, err := hydee.MarshalRunEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp := hydee.NewJSONLExporter(&buf)
	exp.OnEvent(ev)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimRight(buf.Bytes(), "\n"); !bytes.Equal(data, want) {
		t.Errorf("MarshalRunEvent: %s\njsonl exporter: %s", data, want)
	}
}

// TestEventStreamWireEdgeCases: an existing directory without a trailing
// separator still selects per-run files, and an unknown exporter name
// fails up front in both dir and file modes.
func TestEventStreamWireEdgeCases(t *testing.T) {
	dir := t.TempDir() // exists, no trailing separator
	ctx, closeEvents, err := hydee.EventStreamSpec{Path: dir}.Wire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hydee.New(hydee.WithRanks(4), hydee.WithModel(hydee.IdealNetwork()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, hydee.RingProgram(2, 64)); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "run-*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("existing dir selected %d per-run files, want 1", len(files))
	}

	if _, _, err := (hydee.EventStreamSpec{Path: dir, Exporter: "no-such-exporter"}).Wire(context.Background()); err == nil {
		t.Error("unknown exporter in dir mode: no error")
	}
	if _, _, err := (hydee.EventStreamSpec{Path: filepath.Join(dir, "f.jsonl"), Exporter: "no-such-exporter"}).Wire(context.Background()); err == nil {
		t.Error("unknown exporter in file mode: no error")
	}
}

// TestEventStreamWireAutoDetectsDirectory checks the -events flag wiring: a
// trailing separator selects per-run files, a plain path one fan-in file.
func TestEventStreamWireAutoDetectsDirectory(t *testing.T) {
	base := t.TempDir()
	ctx, closeEvents, err := hydee.EventStreamSpec{Path: filepath.Join(base, "events") + string(os.PathSeparator)}.Wire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hydee.New(hydee.WithRanks(4), hydee.WithModel(hydee.IdealNetwork()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, hydee.RingProgram(2, 64)); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(base, "events", "run-*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("dir mode produced %d files, want 1", len(files))
	}

	plain := filepath.Join(base, "flat.jsonl")
	ctx2, closeEvents2, err := hydee.EventStreamSpec{Path: plain}.Wire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx2, hydee.RingProgram(2, 64)); err != nil {
		t.Fatal(err)
	}
	if err := closeEvents2(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(plain); err != nil {
		t.Fatalf("file mode: %v", err)
	}
}

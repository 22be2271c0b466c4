package hydee_test

// Tests for the shared flag/wire spec layer: SweepSpec resolution through
// the name tables, the contiguous clusters shorthand, store binding, and
// eager rejection of bad names — the same decode path the cmd flags and
// the hydee-serve HTTP API use.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"hydee"
)

func TestSweepSpecResolves(t *testing.T) {
	raw := `{"app":"cg","np":16,"iters":3,"proto":"hydee","clusters":4,
		"ckpt":2,"fail_at":"ckpts:1@8","net":"ideal",
		"store":"sharded:2","store_bps":1e9}`
	var s hydee.SweepSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kernel.Name != "cg" || spec.Proto != hydee.ProtoHydEE || spec.CheckpointEvery != 2 {
		t.Errorf("resolved %s/%s ckpt=%d", spec.Kernel.Name, spec.Proto, spec.CheckpointEvery)
	}
	// A kernel name, like every other table name, ignores letter case.
	if up, err := (hydee.SweepSpec{App: "CG", NP: 4, Proto: "Native"}).Experiment(); err != nil || up.Kernel.Name != "cg" {
		t.Errorf(`app "CG": kernel %q, %v`, up.Kernel.Name, err)
	}
	if len(spec.Assign) != 16 || spec.Assign[0] != 0 || spec.Assign[15] != 3 {
		t.Errorf("clusters shorthand: assign %v", spec.Assign)
	}
	if spec.Failures == nil || spec.Model == nil || spec.NewStore == nil {
		t.Errorf("missing resolution: failures=%v model=%v store=%v",
			spec.Failures != nil, spec.Model != nil, spec.NewStore != nil)
	}
	// The resolved spec actually runs, store and all.
	sum, err := hydee.RunExperiments(context.Background(), []hydee.ExperimentSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 1 || len(sum[0].Rounds) != 1 {
		t.Fatalf("resolved run: %d summaries, rounds %v", len(sum), sum[0].Rounds)
	}
}

func TestSweepSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		s    hydee.SweepSpec
		frag string // expected error fragment
	}{
		{"no np", hydee.SweepSpec{App: "cg"}, "np"},
		{"np above the cap", hydee.SweepSpec{App: "cg", NP: 16385, Proto: "native"}, "16385"},
		{"bad kernel", hydee.SweepSpec{App: "nope", NP: 8}, "nope"},
		{"bad proto", hydee.SweepSpec{App: "cg", NP: 8, Proto: "bogus"}, "bogus"},
		{"bad net", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", Net: "carrier-pigeon"}, "carrier-pigeon"},
		{"hydee without clustering", hydee.SweepSpec{App: "cg", NP: 8}, "assign"},
		{"assign size", hydee.SweepSpec{App: "cg", NP: 8, Assign: []int{0, 1}}, "assign"},
		{"negative cluster id", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 0, -1, 1}}, "cluster id -1"},
		{"cluster id np", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 0, 4, 1}}, "cluster id 4"},
		{"huge cluster id", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 0, 1e9, 1}}, "cluster id 1000000000"},
		{"gap in cluster ids", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 2, 2, 2}}, "cluster 1 empty"},
		{"too many clusters", hydee.SweepSpec{App: "cg", NP: 4, Clusters: 8}, "clusters"},
		{"negative ckpt", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", CheckpointEvery: -1}, "ckpt"},
		{"bad failure spec", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", FailAt: "moon:full"}, "moon"},
		{"failure rank out of range", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", FailAt: "ckpts:1@99"}, "99"},
		{"bad store", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native",
			StoreSpec: hydee.StoreSpec{Spec: "punchcards"}}, "punchcards"},
	}
	for _, tc := range cases {
		if _, err := tc.s.Experiment(); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q misses %q", tc.name, err, tc.frag)
		}
	}
	// Experiments names the failing index.
	_, err := hydee.Experiments([]hydee.SweepSpec{
		{App: "cg", NP: 8, Proto: "native"},
		{App: "nope", NP: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "run 1") {
		t.Errorf("batch error %v, want it to name run 1", err)
	}
}

// FuzzSweepSpec holds the job decoder to two properties on any JSON
// input: resolving never panics, and a spec Experiment accepts is one the
// runtime accepts too. Each accepted spec with np <= 64 and no store
// directory (a run would create it) is run under an already-canceled
// context, which ends the run at its first supervisor step and every
// rank at its next Comm operation, whatever the iteration count: it may
// fail as canceled, but never otherwise — not with a configuration error,
// from the spec's Engine or its run, which hydee-serve would report only
// after queueing the job.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{"app":"cg","np":16,"proto":"hydee","clusters":4,"ckpt":2,"fail_at":"ckpts:1@8","store":"sharded:2","store_bps":1e9}`,
		`{"app":"mg","np":8,"proto":"native"}`,
		`{"app":"ft","np":4,"proto":"mlog","net":"tcpgige","iters":2}`,
		`{"app":"lu","np":6,"proto":"coord","ckpt":1,"stagger":true}`,
		`{"app":"bt","np":4,"assign":[0,0,1,1],"store":"ec:2+1"}`,
		`{"app":"sp","np":2,"proto":"native","ckpt":-1}`,
		`{"app":"CG","np":1,"proto":"Native","store":"replica:2"}`,
		`{"app":"cg","np":4,"proto":"native","fail_at":"vt:1ms@3"}`,
		`{"app":"ft","np":1,"proto":"hydee","iters":2000000000}`,
		`{"np":-3}`, `[]`, `null`,
	} {
		f.Add(seed)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, raw string) {
		var s hydee.SweepSpec
		if json.Unmarshal([]byte(raw), &s) != nil {
			return
		}
		spec, err := s.Experiment()
		if err != nil || s.NP > 64 || s.Dir != "" {
			return
		}
		if _, err := hydee.RunExperimentContext(canceled, spec); err != nil && !errors.Is(err, hydee.ErrCanceled) {
			t.Fatalf("spec %s resolved but the run failed other than canceled: %v", raw, err)
		}
	})
}

// TestSpecFlagBinding parses a flag line through the shared Bind helpers
// — the cmd binaries' wiring — and checks the specs land as typed.
func TestSpecFlagBinding(t *testing.T) {
	var store hydee.StoreSpec
	var stream hydee.EventStreamSpec
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	store.Bind(fs)
	stream.Bind(fs)
	if err := fs.Parse([]string{
		"-store", "sharded:4", "-store-bps", "2e9", "-store-dir", t.TempDir(),
		"-events", "out.jsonl", "-exporter", "metrics",
	}); err != nil {
		t.Fatal(err)
	}
	if store.Spec != "sharded:4" || store.BPS != 2e9 || store.Dir == "" {
		t.Errorf("store spec: %+v", store)
	}
	if opts, err := store.Probe(); err != nil || opts.Shards != 4 {
		t.Errorf("probe: %+v, %v", opts, err)
	}
	// Validating a spec builds nothing: no shard directories appeared.
	if entries, err := os.ReadDir(store.Dir); err != nil || len(entries) != 0 {
		t.Errorf("probe touched the store directory: %v, %v", entries, err)
	}
	if stream.Path != "out.jsonl" || stream.Exporter != "metrics" {
		t.Errorf("stream spec: %+v", stream)
	}

	// Defaults when no flags are given: mem store, jsonl exporter, and a
	// Wire that succeeds as a no-op.
	var dstore hydee.StoreSpec
	var dstream hydee.EventStreamSpec
	dfs := flag.NewFlagSet("y", flag.ContinueOnError)
	dstore.Bind(dfs)
	dstream.Bind(dfs)
	if err := dfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if dstore.Spec != "mem" {
		t.Errorf("default store %q", dstore.Spec)
	}
	ctx, closeFn, err := dstream.Wire(context.Background())
	if err != nil || ctx != context.Background() {
		t.Errorf("no-op wire: ctx changed or err %v", err)
	}
	if err := closeFn(); err != nil {
		t.Errorf("no-op close: %v", err)
	}
}

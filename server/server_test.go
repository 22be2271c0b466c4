package server_test

// Tests for the sweep service: HTTP submissions produce summaries
// byte-identical to serial in-process sweeps even when jobs run
// concurrently, cancellation lands fast and leaks nothing, the SSE
// stream replays from the start and terminates with the final view, and
// the queue applies backpressure instead of buffering without bound.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hydee"
	"hydee/server"
)

// sweepRuns is the reference sweep: three protocols, a failure with
// recovery, a sharded store — enough surface that accidental
// nondeterminism in the serving path would show.
func sweepRuns() []hydee.SweepSpec {
	return []hydee.SweepSpec{
		{App: "cg", NP: 16, Iters: 3, Proto: "hydee", Clusters: 4, CheckpointEvery: 2, FailAt: "ckpts:1@8"},
		{App: "mg", NP: 16, Iters: 3, Proto: "coord", CheckpointEvery: 2},
		{App: "ft", NP: 16, Iters: 2, Proto: "native"},
	}
}

func newTestServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.EventDir == "" {
		cfg.EventDir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv
}

func submitHTTP(t *testing.T, ts *httptest.Server, req server.JobRequest) server.JobView {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitDone(t *testing.T, srv *server.Server, id int) server.JobView {
	t.Helper()
	done, err := srv.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %d did not finish", id)
	}
	view, err := srv.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// rawSummaries fetches a job view keeping the summaries' JSON bytes
// unparsed, for exact byte comparison against a serial sweep.
func rawSummaries(t *testing.T, ts *httptest.Server, id int) (string, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %d: status %d", id, resp.StatusCode)
	}
	var view struct {
		State     string          `json:"state"`
		Summaries json.RawMessage `json:"summaries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.State, view.Summaries
}

// TestConcurrentHTTPSweepsMatchSerial is the determinism acceptance: two
// jobs of the same sweep submitted over HTTP and run concurrently yield
// summaries byte-identical to each other and to a serial in-process
// sweep of the same specs.
func TestConcurrentHTTPSweepsMatchSerial(t *testing.T) {
	srv := newTestServer(t, server.Config{Concurrency: 2, Parallelism: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := submitHTTP(t, ts, server.JobRequest{Label: "a", Runs: sweepRuns()})
	b := submitHTTP(t, ts, server.JobRequest{Label: "b", Runs: sweepRuns()})
	if av := waitDone(t, srv, a.ID); av.State != server.StateDone {
		t.Fatalf("job a: state %s (%s)", av.State, av.Error)
	}
	if bv := waitDone(t, srv, b.ID); bv.State != server.StateDone {
		t.Fatalf("job b: state %s (%s)", bv.State, bv.Error)
	}

	specs, err := hydee.Experiments(sweepRuns())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := hydee.RunExperiments(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}

	_, gotA := rawSummaries(t, ts, a.ID)
	_, gotB := rawSummaries(t, ts, b.ID)
	if !bytes.Equal(gotA, want) {
		t.Errorf("job a summaries differ from serial sweep:\nhttp:   %s\nserial: %s", gotA, want)
	}
	if !bytes.Equal(gotB, want) {
		t.Errorf("job b summaries differ from serial sweep:\nhttp:   %s\nserial: %s", gotB, want)
	}

	// The concurrent jobs also wrote disjoint per-run event files.
	for _, v := range []server.JobView{a, b} {
		entries, err := os.ReadDir(v.EventDir)
		if err != nil {
			t.Fatalf("job %d event dir: %v", v.ID, err)
		}
		if len(entries) != len(sweepRuns()) {
			t.Errorf("job %d: %d event files, want %d", v.ID, len(entries), len(sweepRuns()))
		}
	}
	if a.EventDir == b.EventDir {
		t.Errorf("jobs share an event dir: %s", a.EventDir)
	}
}

// TestCancelRunningJob checks DELETE semantics through the direct API:
// cancellation of a mid-sweep job lands within 100ms and the service
// winds down without leaking goroutines.
func TestCancelRunningJob(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := server.New(server.Config{EventDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	runs := make([]hydee.SweepSpec, 64)
	for i := range runs {
		runs[i] = hydee.SweepSpec{App: "cg", NP: 16, Iters: 50, Proto: "native"}
	}
	view, err := srv.Submit(server.JobRequest{Runs: runs, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Gate on the first lifecycle event so the engines are demonstrably
	// mid-run when the cancel arrives.
	events, cancelSub, err := srv.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-events:
	case <-time.After(30 * time.Second):
		t.Fatal("no event from the running job")
	}
	cancelSub()

	start := time.Now()
	if _, err := srv.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, view.ID)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
	}
	if final.State != server.StateCanceled {
		t.Errorf("state %s, want canceled (err %q)", final.State, final.Error)
	}
	// Cancel is idempotent on a finished job.
	if v, err := srv.Cancel(view.ID); err != nil || v.State != server.StateCanceled {
		t.Errorf("re-cancel: state %s, err %v", v.State, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Goroutines settle back to the baseline (small slack for the test
	// runtime's own background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventStreamSSE reads a job's event stream over HTTP: replayed from
// the start even when the subscription arrives after the job finished,
// framed as `lifecycle` events carrying the JSONL wire records, and
// terminated by exactly one `summary` event with the final view.
func TestEventStreamSSE(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	view := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 8, Iters: 2, Proto: "native"},
		{App: "cg", NP: 8, Iters: 2, Proto: "coord", CheckpointEvery: 1},
	}})
	waitDone(t, srv, view.ID) // subscribe late: replay must still deliver everything

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, view.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		event     string
		lifecycle int
		kinds     = map[string]int{}
		summary   *server.JobView
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "lifecycle":
				lifecycle++
				var rec struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal([]byte(data), &rec); err != nil {
					t.Fatalf("bad lifecycle data %q: %v", data, err)
				}
				kinds[rec.Kind]++
			case "summary":
				if summary != nil {
					t.Fatal("second summary event")
				}
				summary = new(server.JobView)
				if err := json.Unmarshal([]byte(data), summary); err != nil {
					t.Fatalf("bad summary data %q: %v", data, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lifecycle == 0 || kinds["run-start"] != 2 || kinds["run-complete"] != 2 {
		t.Errorf("lifecycle events: %d total, kinds %v", lifecycle, kinds)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary event")
	}
	if summary.State != server.StateDone || len(summary.Summaries) != 2 {
		t.Errorf("summary: state %s, %d summaries", summary.State, len(summary.Summaries))
	}
}

// flushRecorder records a response and the bytes each Flush pushed out.
type flushRecorder struct {
	*httptest.ResponseRecorder
	chunks  []string
	flushed int
}

func (f *flushRecorder) Flush() {
	f.chunks = append(f.chunks, f.Body.String()[f.flushed:])
	f.flushed = f.Body.Len()
}

// TestEventStreamBytes pins the SSE body byte for byte: one lifecycle frame
// per event the job's hub replays, in order, then the summary frame of the
// final view. The handler flushes once per run of events that were waiting,
// never inside a frame, and leaves nothing unflushed.
func TestEventStreamBytes(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	view := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 8, Iters: 3, Proto: "hydee", Clusters: 2, CheckpointEvery: 1, FailAt: "ckpts:1@3"},
		{App: "cg", NP: 8, Iters: 2, Proto: "native"},
	}})
	final := waitDone(t, srv, view.ID)

	events, cancel, err := srv.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var want strings.Builder
	frames := 0
	for ev := range events {
		data, err := hydee.MarshalRunEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "event: lifecycle\ndata: %s\n\n", data)
		frames++
	}
	summary, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "event: summary\ndata: %s\n\n", summary)

	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/events", view.ID), nil))
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("stream of %d lifecycle frames differs:\n got %q\nwant %q", frames, got, want.String())
	}
	if rec.flushed != rec.Body.Len() {
		t.Errorf("%d of %d bytes never flushed", rec.Body.Len()-rec.flushed, rec.Body.Len())
	}
	for i, c := range rec.chunks {
		if c != "" && !strings.HasSuffix(c, "\n\n") {
			t.Errorf("flush %d ends inside a frame: %q", i, c)
		}
	}
	t.Logf("%d lifecycle frames in %d flushes", frames, len(rec.chunks))
}

// TestQueueBackpressureAndErrors drives the 503/400/404 paths: a full
// queue rejects rather than buffers, a bad spec is rejected at submit
// with the resolution error, unknown job ids 404.
func TestQueueBackpressureAndErrors(t *testing.T) {
	// Every submission below names a store_dir; at the end nothing but
	// the event directory may exist under root (the working directory,
	// so a relative store_dir resolved by the process would land here).
	root := t.TempDir()
	t.Chdir(root)
	srv := newTestServer(t, server.Config{Queue: 1, Concurrency: 1, EventDir: filepath.Join(root, "events")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := make([]hydee.SweepSpec, 32)
	for i := range long {
		long[i] = hydee.SweepSpec{App: "cg", NP: 16, Iters: 50, Proto: "native",
			StoreSpec: hydee.StoreSpec{Spec: "sharded:2", Dir: "ckpts"}}
	}
	a := submitHTTP(t, ts, server.JobRequest{Runs: long, Parallelism: 1})
	// Wait until the worker picked job a up, freeing the queue slot, and
	// its first run built its store — confined under the event directory.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := srv.Job(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(filepath.Join(root, "events", "ckpts", "shard-001"))
		if v.State == server.StateRunning && statErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started with its store_dir under the event directory (state %s, %v)", a.ID, v.State, statErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := submitHTTP(t, ts, server.JobRequest{Runs: long, Parallelism: 1}) // fills the queue

	body, _ := json.Marshal(server.JobRequest{Runs: long})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-full submit: status %d, want 503", resp.StatusCode)
	}

	// A spec with an unknown protocol is rejected before taking a slot.
	bad, _ := json.Marshal(server.JobRequest{Runs: []hydee.SweepSpec{{App: "cg", NP: 8, Proto: "bogus"}}})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "bogus") {
		t.Errorf("bad spec: status %d, error %q", resp.StatusCode, apiErr.Error)
	}

	// A store_dir is confined under the event directory: absolute paths
	// and ".." are rejected, and so is a job whose second run is invalid
	// — none of them having created the first run's directory.
	fileRun := func(dir string) hydee.SweepSpec {
		return hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", StoreSpec: hydee.StoreSpec{Spec: "file", Dir: dir}}
	}
	for name, runs := range map[string][]hydee.SweepSpec{
		"absolute":        {fileRun(filepath.Join(root, "abs"))},
		"dotdot":          {fileRun("../escape")},
		"second-run-bad":  {fileRun("ok"), {App: "cg", NP: 8, Proto: "bogus"}},
		"second-dir-bad":  {fileRun("ok"), fileRun("a/../../escape")},
		"misconfigured":   {{App: "cg", NP: 8, Proto: "native", StoreSpec: hydee.StoreSpec{Spec: "ec:2+1", Dir: "ok"}}},
		"no-dir-for-file": {fileRun("")},
	} {
		body, _ := json.Marshal(server.JobRequest{Runs: runs})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s store_dir: status %d, want 400", name, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// Unblock the drain: cancel both jobs over HTTP.
	for _, id := range []int{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("cancel %d: status %d", id, resp.StatusCode)
		}
	}
	for _, id := range []int{a.ID, b.ID} {
		if v := waitDone(t, srv, id); v.State != server.StateCanceled {
			t.Errorf("job %d: state %s, want canceled", id, v.State)
		}
	}

	// The rejected submissions (503 and 400) and the accepted-then-
	// cancelled ones left nothing outside the event directory.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "events" {
		t.Errorf("submissions wrote outside the event directory: %v", entries)
	}
}

// TestBadClusterIDRejected: a job whose assign holds a cluster id outside
// [0, np) answers 400 at submission, and the server goes on to run the
// next job.
func TestBadClusterIDRejected(t *testing.T) {
	srv := newTestServer(t, server.Config{Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, assign := range []string{"[0,0,-1,1]", "[0,0,4,1]"} {
		body := `{"runs":[{"app":"cg","np":4,"assign":` + assign + `}]}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "cluster id") {
			t.Errorf("assign %s: status %d, error %q; want 400 naming the cluster id", assign, resp.StatusCode, apiErr.Error)
		}
	}
	view := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 4, Iters: 2, Proto: "hydee", Assign: []int{0, 0, 1, 1}},
	}})
	if v := waitDone(t, srv, view.ID); v.State != server.StateDone {
		t.Errorf("next job: state %s (%s), want done", v.State, v.Error)
	}
}

// TestBadStoreBandwidthRejected: a job whose store_bps is negative
// answers 400 at submission instead of running on free storage, and the
// server goes on to run the next job.
func TestBadStoreBandwidthRejected(t *testing.T) {
	srv := newTestServer(t, server.Config{Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"runs":[{"app":"cg","np":4,"proto":"native","store_bps":-1}]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "bandwidth") {
		t.Errorf("store_bps -1: status %d, error %q; want 400 naming the bandwidth", resp.StatusCode, apiErr.Error)
	}
	view := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 4, Iters: 2, Proto: "native", StoreSpec: hydee.StoreSpec{BPS: 4e9}},
	}})
	if v := waitDone(t, srv, view.ID); v.State != server.StateDone {
		t.Errorf("next job: state %s (%s), want done", v.State, v.Error)
	}
}

// TestGracefulClose: Close drains queued work, then refuses submissions.
func TestGracefulClose(t *testing.T) {
	srv, err := server.New(server.Config{EventDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	view, err := srv.Submit(server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 8, Iters: 2, Proto: "native"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := srv.Job(view.ID); err != nil || v.State != server.StateDone {
		t.Errorf("after close: state %s, err %v — queued work must drain, not drop", v.State, err)
	}
	if _, err := srv.Submit(server.JobRequest{Runs: []hydee.SweepSpec{{App: "cg", NP: 8, Proto: "native"}}}); !errors.Is(err, server.ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestRegistryEndpoint spot-checks the discoverable backend names, and
// that every protocol it advertises is one a job's proto accepts.
func TestRegistryEndpoint(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"kernels":   "cg",
		"protocols": "hydee",
		"models":    "myrinet10g",
		"stores":    "sharded",
		"exporters": "jsonl",
	}
	for section, name := range want {
		found := false
		for _, n := range reg[section] {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("registry %s misses %q: %v", section, name, reg[section])
		}
	}
	for _, name := range reg["protocols"] {
		spec := hydee.SweepSpec{App: "cg", NP: 4, Proto: name, Clusters: 2}
		if _, err := spec.Experiment(); err != nil {
			t.Errorf("advertised protocol %q refused as a job's proto: %v", name, err)
		}
	}
}

// TestOversizedSubmissionRejected: a job body above the server's limit
// answers 400 and queues nothing.
func TestOversizedSubmissionRejected(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A job the server would run, padded past 1 MiB with whitespace.
	body := `{"runs":[{"app":"cg","np":4,"proto":"native"}]` + strings.Repeat(" ", 1<<20) + "}"
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized submission: status %d, want 400", resp.StatusCode)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized submission queued %d jobs", len(jobs))
	}
}

// TestChurnLeaksNothing drives the service the way a crowd of careless
// clients would: submissions until the queue answers 503, an SSE stream
// on every accepted job with every other client gone after its first
// frame, one burst of DELETEs over queued and running jobs alike, then
// Close. Every job ends canceled or done, every stream still read to
// its end ends with the summary frame, and the goroutines return to the
// baseline.
func TestChurnLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := server.New(server.Config{Queue: 2, EventDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}

	runs := make([]hydee.SweepSpec, 64)
	for i := range runs {
		runs[i] = hydee.SweepSpec{App: "cg", NP: 16, Iters: 50, Proto: "native"}
	}
	body, err := json.Marshal(server.JobRequest{Runs: runs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for full := false; !full; {
		if len(ids) == 8 {
			t.Fatalf("%d submissions accepted into a queue of 2, no 503", len(ids))
		}
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var view server.JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, view.ID)
		case http.StatusServiceUnavailable:
			full = true
		default:
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// One SSE client per accepted job. The even-numbered ones hang up
	// after their first frame; the others read to the end of the stream
	// and report the last event name they saw.
	first := make(chan struct{}, len(ids))
	last := make([]string, len(ids))
	var readers sync.WaitGroup
	for i, id := range ids {
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			frames := 0
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, "event: ") {
					last[i] = strings.TrimPrefix(line, "event: ")
				}
				if line != "" {
					continue
				}
				if frames++; frames == 1 {
					first <- struct{}{}
					if i%2 == 0 {
						return
					}
				}
			}
		}()
	}
	// The first job is running: its stream's first frame is a lifecycle
	// event, and its client is one of those that hang up.
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("no SSE frame from the running job")
	}

	var cancels sync.WaitGroup
	for _, id := range ids {
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
			resp, err := client.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("cancel %d: status %d", id, resp.StatusCode)
			}
		}()
	}
	cancels.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if v := waitDone(t, srv, id); v.State != server.StateCanceled && v.State != server.StateDone {
			t.Errorf("job %d: state %s, want canceled or done", id, v.State)
		}
	}
	readers.Wait()
	for i := 1; i < len(ids); i += 2 {
		if last[i] != "summary" {
			t.Errorf("job %d: stream read to its end finished on %q, want the summary frame", ids[i], last[i])
		}
	}
	// httptest's Close waits for every handler: a stream handler stuck
	// on a client that hung up fails here rather than hanging the test.
	closed := make(chan struct{})
	go func() { ts.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP server did not close: a handler is still running")
	}
	transport.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"hydee"
	"hydee/server"
)

// serveWorkload drives the sweep service the way its users do: over HTTP.
// It is a closed loop — each of the clients posts a job, reads the job's
// SSE stream to the terminal summary event, and only then posts the next —
// with two clients, whatever the box: the server runs one job at a time, so
// one job runs while the other waits in the queue. Every job is the same two
// runs (a clustered cg with one failure, a message-logged mg); the seed
// picks the victim rank and the order of the two runs inside the job.
func serveWorkload(e env) (*job, error) {
	clients, perClient := 2, 500
	if e.tiny {
		perClient = 8
	}
	const np = 16
	rng := rand.New(rand.NewSource(e.seed))
	runs := []hydee.SweepSpec{
		{App: "cg", NP: np, Clusters: 4, CheckpointEvery: 2, FailAt: fmt.Sprintf("ckpts:1@%d", rng.Intn(np))},
		{App: "mg", NP: np, Proto: "mlog"},
	}
	if rng.Intn(2) == 1 {
		runs[0], runs[1] = runs[1], runs[0]
	}
	body, err := json.Marshal(server.JobRequest{Label: "bench", Runs: runs})
	if err != nil {
		return nil, err
	}
	// The recovered results must equal a failure-free execution's: run the
	// same two specs without the failure, in process, as the reference.
	var wantDigests []string
	for _, r := range runs {
		r.FailAt = ""
		spec, err := r.Experiment()
		if err != nil {
			return nil, err
		}
		sum, err := hydee.RunExperiment(spec)
		if err != nil {
			return nil, err
		}
		d, err := json.Marshal(sum.Digests)
		if err != nil {
			return nil, err
		}
		wantDigests = append(wantDigests, string(d))
	}

	dir, err := os.MkdirTemp("", "hydee-bench-serve-*")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Queue: 16, Concurrency: 1, EventDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	cleanup := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx) // best effort: the process is about to exit
		os.RemoveAll(dir)
	}

	run := func() (*outcome, error) {
		o := &outcome{Counts: map[string]int64{}}
		sc := &serveClient{url: ts.URL, body: body, http: ts.Client(), tr: e.tr, wantDigests: wantDigests}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					sc.doJob()
				}
			}()
		}
		wg.Wait()
		o.Attempted = clients * perClient
		o.Failed = len(sc.errs)
		o.Errors = sc.errs
		if len(o.Errors) > 5 {
			o.Errors = o.Errors[:5]
		}
		o.JobMS = sc.latency
		done := int64(len(sc.latency))
		o.Msgs = sc.perJobMsgs * done
		for name, v := range sc.perJobCounts {
			o.Counts[name] = v * done
		}
		o.Counts["server.rejected"] = sc.rejected
		o.VTDigest = hexDigest(sc.firstSum[:])
		if sc.tr != nil {
			jobs := float64(len(sc.latency))
			o.Counts["export.events"] = sc.sseEvents
			o.Layer = map[string]float64{
				"server.submit_ms_p50":      median(sc.submit),
				"server.queue_wait_ms_p50":  median(sc.queueWait),
				"server.run_ms_p50":         median(sc.runMS),
				"server.job_latency_p99_ms": percentile(sc.latency, 99),
			}
			if jobs > 0 {
				o.Layer["server.sse_events_per_job"] = float64(sc.sseEvents) / jobs
			}
		}
		return o, nil
	}
	return &job{run: run, cleanup: cleanup}, nil
}

// serveClient is the state the closed-loop clients share.
type serveClient struct {
	url         string
	body        []byte
	http        *http.Client
	tr          *tracer // nil on untraced runs
	wantDigests []string

	mu       sync.Mutex
	latency  []float64 // ms, POST start to summary event
	errs     []string
	rejected int64
	// perJobMsgs / perJobCounts are the first job's simulated deliveries
	// and exact counts; every later job is byte-identical to it.
	perJobMsgs   int64
	perJobCounts map[string]int64
	first        []byte // the first job's summaries, the byte reference
	firstSum     [sha256.Size]byte
	sseEvents    int64
	// traced only: POST round trip, 202 to first run-start frame, first
	// run-start frame to summary (ms).
	submit, queueWait, runMS []float64
}

// jobSummary is the part of a JobView the client checks.
type jobSummary struct {
	ID        int             `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Summaries json.RawMessage `json:"summaries"`
}

func (sc *serveClient) failJob(format string, args ...any) {
	sc.mu.Lock()
	sc.errs = append(sc.errs, fmt.Sprintf(format, args...))
	sc.mu.Unlock()
}

// doJob submits one job and follows its event stream to the summary.
func (sc *serveClient) doJob() {
	if sc.tr != nil {
		defer sc.tr.end(sc.tr.begin("server.job", -1, 0))
	}
	t0 := time.Now()
	resp, err := sc.http.Post(sc.url+"/v1/jobs", "application/json", bytes.NewReader(sc.body))
	if err != nil {
		sc.failJob("submit: %v", err)
		return
	}
	var view jobSummary
	derr := json.NewDecoder(resp.Body).Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	accepted := time.Now()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		if resp.StatusCode == http.StatusServiceUnavailable {
			sc.mu.Lock()
			sc.rejected++
			sc.mu.Unlock()
		}
		sc.failJob("submit: status %d, decode error %v", resp.StatusCode, derr)
		return
	}

	stream, err := sc.http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", sc.url, view.ID))
	if err != nil {
		sc.failJob("job %d: events: %v", view.ID, err)
		return
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		sc.failJob("job %d: events: status %d", view.ID, stream.StatusCode)
		return
	}
	var (
		event      string
		frames     int64
		firstStart time.Time
		final      *jobSummary
	)
	lines := bufio.NewScanner(stream.Body)
	lines.Buffer(make([]byte, 64<<10), 4<<20)
	for final == nil && lines.Scan() {
		line := lines.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "lifecycle":
			frames++
			if sc.tr != nil && firstStart.IsZero() && strings.Contains(line, `"kind":"run-start"`) {
				firstStart = time.Now()
			}
		case strings.HasPrefix(line, "data: ") && event == "summary":
			final = &jobSummary{}
			if err := json.Unmarshal([]byte(line[len("data: "):]), final); err != nil {
				sc.failJob("job %d: summary: %v", view.ID, err)
				return
			}
		}
	}
	done := time.Now()
	io.Copy(io.Discard, stream.Body)
	if final == nil {
		sc.failJob("job %d: stream ended without a summary event (%v)", view.ID, lines.Err())
		return
	}
	if final.State != string(server.StateDone) {
		sc.failJob("job %d: state %s: %s", view.ID, final.State, final.Error)
		return
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.first == nil {
		if err := sc.checkFirst(final.Summaries); err != nil {
			sc.errs = append(sc.errs, fmt.Sprintf("job %d: %v", view.ID, err))
			return
		}
	} else if !bytes.Equal(final.Summaries, sc.first) {
		sc.errs = append(sc.errs, fmt.Sprintf("job %d: summaries differ from the first job's", view.ID))
		return
	}
	sc.latency = append(sc.latency, ms(done.Sub(t0)))
	sc.sseEvents += frames
	if sc.tr != nil {
		sc.submit = append(sc.submit, ms(accepted.Sub(t0)))
		if !firstStart.IsZero() {
			sc.queueWait = append(sc.queueWait, ms(firstStart.Sub(accepted)))
			sc.runMS = append(sc.runMS, ms(done.Sub(firstStart)))
		}
	}
}

// checkFirst validates the first job's summaries against the failure-free
// reference and keeps them as the byte reference for every later job.
// Called with sc.mu held.
func (sc *serveClient) checkFirst(raw json.RawMessage) error {
	var sums []struct {
		Totals  hydee.Metrics
		Rounds  []hydee.RecoveryStats
		Store   hydee.StoreStats
		Digests json.RawMessage
	}
	if err := json.Unmarshal(raw, &sums); err != nil {
		return fmt.Errorf("decode summaries: %w", err)
	}
	if len(sums) != len(sc.wantDigests) {
		return fmt.Errorf("%d summaries, want %d", len(sums), len(sc.wantDigests))
	}
	var msgs int64
	counts := map[string]int64{}
	for i, s := range sums {
		if string(s.Digests) != sc.wantDigests[i] {
			return fmt.Errorf("run %d: recovered results differ from the failure-free run's", i)
		}
		msgs += s.Totals.AppDelivers
		countsOf(counts, s.Totals, s.Rounds, s.Store)
	}
	sc.first = raw
	sc.firstSum = sha256.Sum256(raw)
	sc.perJobMsgs, sc.perJobCounts = msgs, counts
	return nil
}

// Package server turns the hydee experiment harness into a long-lived
// sweep service: jobs of SweepSpec runs are queued, executed over
// hydee.RunExperiments with bounded concurrency, cancelable per job, and
// observable live through a replaying event stream. Command hydee-serve
// exposes it over HTTP; the package itself is transport-free so tests and
// embedders drive it directly.
//
// Determinism survives the network hop: a job's summaries are produced by
// the same virtual-time engine as the CLI sweeps, so submitting a sweep
// over HTTP yields summaries byte-identical to running it serially in
// process — concurrency of the service changes wall-clock only.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"hydee"
)

// Config sizes the service. The zero value is usable: a small queue, one
// job at a time, per-job parallelism one-per-CPU, events under a temp dir.
type Config struct {
	// Queue bounds the number of jobs waiting to run; submissions beyond
	// it are rejected with ErrQueueFull (backpressure, not buffering).
	// 0 means 16.
	Queue int
	// Concurrency is the number of jobs running at once. 0 means 1 —
	// the byte-reproducibility default: jobs never contend on CPU.
	Concurrency int
	// Parallelism is the per-job RunAll worker count (0 = one per CPU).
	// A submission may override it per job.
	Parallelism int
	// EventDir is where each job's per-run event files land, one
	// subdirectory per job id. "" creates a temp dir.
	EventDir string
	// Exporter names the exporter driving each job's per-run
	// files. "" means "jsonl".
	Exporter string
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission when the job queue is at capacity.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrClosed rejects submissions after Close began.
	ErrClosed = errors.New("server: shutting down")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("server: no such job")
)

// JobState is the lifecycle phase of a job.
type JobState string

// The job lifecycle: Queued → Running → one of Done / Failed / Canceled.
// A queued job canceled before a worker picks it up goes straight to
// Canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobRequest is a submission: a batch of runs executed as one job.
type JobRequest struct {
	// Label is a free-form client tag echoed back in views.
	Label string `json:"label,omitempty"`
	// Runs are the sweep's experiment specs; at least one.
	Runs []hydee.SweepSpec `json:"runs"`
	// Parallelism overrides the server's per-job RunAll worker count
	// for this job (0 = server default).
	Parallelism int `json:"parallelism,omitempty"`
}

// JobView is the externally visible state of a job — what GET /v1/jobs/{id}
// returns and what the SSE stream's terminal summary event carries.
type JobView struct {
	ID    int      `json:"id"`
	Label string   `json:"label,omitempty"`
	State JobState `json:"state"`
	Runs  int      `json:"runs"`
	// Summaries are the per-run outcomes, in submission order; present
	// once the job is done.
	Summaries []*hydee.ExperimentSummary `json:"summaries,omitempty"`
	// Error is the failure cause of a failed or canceled job.
	Error string `json:"error,omitempty"`
	// EventDir is where the job's per-run event files are written.
	EventDir string `json:"event_dir,omitempty"`
}

type job struct {
	id    int
	label string
	specs []hydee.ExperimentSpec
	par   int

	fanout   *hydee.FanoutExporter
	eventDir string
	done     chan struct{}

	mu        sync.Mutex
	state     JobState
	cancel    context.CancelFunc // set when running
	summaries []*hydee.ExperimentSummary
	err       error
}

// Server runs jobs. Create with New, serve over HTTP via Handler, stop
// with Close.
type Server struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	workers    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[int]*job
	nextID int
	closed bool
}

// New starts a service with cfg's queue and worker pool. It creates the
// event directory eagerly so a bad path fails here, not at first
// submission.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Exporter == "" {
		cfg.Exporter = "jsonl"
	}
	if _, err := hydee.ExporterByName(cfg.Exporter); err != nil {
		return nil, err
	}
	if cfg.EventDir == "" {
		dir, err := os.MkdirTemp("", "hydee-serve-*")
		if err != nil {
			return nil, fmt.Errorf("server: event dir: %w", err)
		}
		cfg.EventDir = dir
	} else if err := os.MkdirAll(cfg.EventDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: event dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.Queue),
		jobs:       make(map[int]*job),
		nextID:     1,
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// EventDir is the resolved root of per-job event directories.
func (s *Server) EventDir() string { return s.cfg.EventDir }

// Submit validates and enqueues a job, returning its view (StateQueued).
// Every run spec is resolved through the name tables now — a bad name or
// failure grammar rejects the whole job before it takes a queue slot.
// Validation builds nothing; a store_dir is created only when its run
// starts, and always under the server's event directory — the wire does
// not get to pick server paths.
func (s *Server) Submit(req JobRequest) (JobView, error) {
	if len(req.Runs) == 0 {
		return JobView{}, errors.New("server: job needs at least one run")
	}
	runs := append([]hydee.SweepSpec(nil), req.Runs...)
	for i := range runs {
		dir := runs[i].Dir
		if dir == "" {
			continue
		}
		if !filepath.IsLocal(dir) {
			return JobView{}, fmt.Errorf(`server: run %d: store_dir %q must be a relative path without ".." (it is confined under the server's event directory)`, i, dir)
		}
		runs[i].Dir = filepath.Join(s.cfg.EventDir, dir)
	}
	specs, err := hydee.Experiments(runs)
	if err != nil {
		return JobView{}, err
	}
	par := req.Parallelism
	if par <= 0 {
		par = s.cfg.Parallelism
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, ErrClosed
	}
	j := &job{
		id:     s.nextID,
		label:  req.Label,
		specs:  specs,
		par:    par,
		fanout: hydee.NewFanoutExporter(),
		done:   make(chan struct{}),
		state:  StateQueued,
	}
	j.eventDir = filepath.Join(s.cfg.EventDir, fmt.Sprintf("job-%d", j.id))
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return JobView{}, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.id] = j
	s.mu.Unlock()
	return j.view(), nil
}

// Job returns the view of one job.
func (s *Server) Job(id int) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return j.view(), nil
}

// Jobs lists every job's view, oldest first.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	return views
}

// Cancel stops a job: a running job's context is canceled (its engine
// runs abort at the next virtual-time step), a queued job goes straight
// to Canceled and is skipped by the workers. Canceling a finished or
// already-canceled job is a no-op. The job's final state is reported by
// its view once the cancellation lands.
func (s *Server) Cancel(id int) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = context.Canceled
		j.mu.Unlock()
		// Never ran: release the stream subscribers ourselves.
		_ = j.fanout.Close()
		close(j.done)
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
	default:
		j.mu.Unlock()
	}
	return j.view(), nil
}

// Subscribe taps a job's live event stream, replayed from the start; the
// channel closes once the job is finished and the replay drained. Cancel
// the returned function to detach early.
func (s *Server) Subscribe(id int) (<-chan hydee.RunEvent, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	ch, cancel := j.fanout.Subscribe()
	return ch, cancel, nil
}

// Done reports a channel closed once the job reached a terminal state.
func (s *Server) Done(id int) (<-chan struct{}, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return j.done, nil
}

// Close drains the service: no new submissions, queued and running jobs
// finish, workers exit. If ctx expires first the base context is
// canceled — running engines abort at their next virtual-time step and
// their jobs finish as Canceled — and Close waits for the workers to
// return. Close is idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job: per-job context under the server's base context,
// events fanned out to both the per-job run-dir files and the in-memory
// replay hub, summaries from the same deterministic engine the CLI uses.
func (s *Server) run(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()

	var (
		summaries []*hydee.ExperimentSummary
		runErr    error
	)
	mk, runErr := hydee.ExporterByName(s.cfg.Exporter) // validated in New
	if runErr == nil {
		var dirExp hydee.Exporter
		if dirExp, runErr = hydee.NewRunDirExporter(j.eventDir, mk); runErr == nil {
			obs := hydee.MultiObserver(dirExp, j.fanout)
			summaries, runErr = hydee.RunExperiments(hydee.ContextWithObserver(ctx, obs), j.specs, j.par)
			if cerr := dirExp.Close(); runErr == nil {
				runErr = cerr
			}
		}
	}
	j.mu.Lock()
	j.summaries = summaries
	j.err = runErr
	switch {
	case runErr == nil:
		j.state = StateDone
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, hydee.ErrCanceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	j.mu.Unlock()
	// Close the hub only after the terminal state is visible: a stream
	// subscriber that drains to the closed channel reads the final view.
	_ = j.fanout.Close()
	close(j.done)
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Label:     j.label,
		State:     j.state,
		Runs:      len(j.specs),
		Summaries: j.summaries,
		EventDir:  j.eventDir,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

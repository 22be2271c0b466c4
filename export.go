package hydee

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Streaming observer exporters: Observer implementations that serialize
// lifecycle events to an external sink, for long sweeps where a debug log
// is too verbose and an in-process callback too ephemeral. Exporters are
// safe for concurrent use — within one run the runtime serializes
// observer calls, but a parallel sweep drives many runs into one exporter
// at once — and must be closed to flush.
//
// The built-ins ("jsonl", "metrics") are selectable by name through
// ExporterByName; a third-party exporter plugs in by value, through
// WithObserver or ContextWithObserver.

// Exporter is an Observer bound to an output sink. Close flushes and
// finalizes the sink (it does not close the underlying writer).
type Exporter interface {
	Observer
	Close() error
}

// ExporterFactory builds an Exporter streaming to w — the constructor
// ExporterByName resolves a name to.
type ExporterFactory func(w io.Writer) Exporter

// jsonlEvent is the wire form of one lifecycle event. Virtual times are
// nanoseconds; optional fields are omitted when absent so a line stays
// one compact record.
type jsonlEvent struct {
	Kind  string `json:"kind"`
	Run   int64  `json:"run,omitempty"`
	VT    int64  `json:"vt"`
	Rank  int    `json:"rank"`
	Ranks []int  `json:"ranks,omitempty"`
	Round int    `json:"round"`
	Seq   int    `json:"seq,omitempty"`
	// Recovery-round outcome (recovery-end only).
	RolledBack int   `json:"rolled_back,omitempty"`
	Orphans    int   `json:"orphans,omitempty"`
	CtlMsgs    int   `json:"ctl_msgs,omitempty"`
	StartVT    int64 `json:"start_vt,omitempty"`
	// Err carries the cause of a run-abort.
	Err string `json:"err,omitempty"`
}

type jsonlExporter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLExporter streams every lifecycle event to w as one JSON object
// per line. The first write error is sticky and reported by Close.
func NewJSONLExporter(w io.Writer) Exporter {
	return &jsonlExporter{enc: json.NewEncoder(w)}
}

// newJSONLEvent builds the wire record of one lifecycle event.
func newJSONLEvent(ev RunEvent) jsonlEvent {
	rec := jsonlEvent{
		Kind:  ev.Kind.String(),
		Run:   ev.Run,
		VT:    int64(ev.VT),
		Rank:  ev.Rank,
		Ranks: ev.Ranks,
		Round: ev.Round,
		Seq:   ev.Seq,
	}
	if s := ev.Stats; s != nil {
		rec.RolledBack = s.RolledBack
		rec.Orphans = s.Orphans
		rec.CtlMsgs = s.CtlMsgs
		rec.StartVT = int64(s.StartVT)
	}
	if ev.Err != nil {
		rec.Err = ev.Err.Error()
	}
	return rec
}

// OnEvent implements Observer.
func (x *jsonlExporter) OnEvent(ev RunEvent) {
	rec := newJSONLEvent(ev)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		return
	}
	if err := x.enc.Encode(&rec); err != nil {
		x.err = fmt.Errorf("hydee: jsonl exporter: %w", err)
	}
}

// Close implements Exporter.
func (x *jsonlExporter) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// MarshalRunEvent encodes one lifecycle event in the exporters' JSONL
// wire form (no trailing newline) — the same record NewJSONLExporter
// writes, exposed so network transports (the hydee-serve SSE stream) can
// frame events byte-compatibly with the files on disk.
func MarshalRunEvent(ev RunEvent) ([]byte, error) {
	rec := newJSONLEvent(ev)
	return json.Marshal(&rec)
}

// FanoutExporter retains every observed event and replays them to any
// number of subscribers, each from the start of the stream — the
// in-memory hub behind live event tails (the hydee-serve SSE endpoint):
// a subscriber arriving mid-run still sees the whole history, and a slow
// subscriber never blocks the runs driving OnEvent.
type FanoutExporter struct {
	mu     sync.Mutex
	events []RunEvent
	subs   map[*fanoutSub]struct{}
	closed bool
}

type fanoutSub struct {
	notify chan struct{}
	stop   chan struct{}
	once   sync.Once
}

// NewFanoutExporter returns an empty hub. Close it once the runs feeding
// it are done so subscribers' channels terminate.
func NewFanoutExporter() *FanoutExporter {
	return &FanoutExporter{subs: make(map[*fanoutSub]struct{})}
}

// OnEvent implements Observer: the event is appended to the retained log
// and subscribers are nudged. Never blocks on a slow subscriber.
func (x *FanoutExporter) OnEvent(ev RunEvent) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	x.events = append(x.events, ev)
	//hydee:allow maprange(non-blocking nudge: each subscriber reads the shared log by cursor, wake order immaterial)
	for sub := range x.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// Events returns a snapshot copy of every event observed so far.
func (x *FanoutExporter) Events() []RunEvent {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]RunEvent(nil), x.events...)
}

// Subscribe returns a channel replaying the stream from its start and
// then following it live, plus a cancel function. The channel closes when
// the hub is closed and the replay has drained, or when cancel is called;
// cancel is idempotent and safe after the channel closed.
func (x *FanoutExporter) Subscribe() (<-chan RunEvent, func()) {
	sub := &fanoutSub{
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	cancel := func() { sub.once.Do(func() { close(sub.stop) }) }
	x.mu.Lock()
	if !x.closed {
		x.subs[sub] = struct{}{}
	}
	x.mu.Unlock()

	// Buffered so the replay runs ahead of the reader: a reader that
	// writes whatever is already waiting before it flushes (the SSE
	// handler) then finds a burst queued, not one event at a time; 64
	// holds a small job's whole stream.
	out := make(chan RunEvent, 64)
	go func() {
		defer close(out)
		next := 0
		for {
			x.mu.Lock()
			var (
				ev     RunEvent
				have   bool
				closed = x.closed
			)
			if next < len(x.events) {
				ev, have = x.events[next], true
				next++
			}
			x.mu.Unlock()
			if have {
				// Subscriber plumbing is host-plane: cancellation racing a
				// delivery only decides where this subscriber's replay cuts
				// off, never what the log contains.
				//hydee:allow selectorder(host-plane subscriber stream; cancel-vs-deliver race only truncates the replay)
				select {
				case out <- ev:
					continue
				case <-sub.stop:
					x.drop(sub)
					return
				}
			}
			if closed {
				x.drop(sub)
				return
			}
			//hydee:allow selectorder(host-plane subscriber stream; wake-vs-cancel order does not change the log)
			select {
			case <-sub.notify:
			case <-sub.stop:
				x.drop(sub)
				return
			}
		}
	}()
	return out, cancel
}

func (x *FanoutExporter) drop(sub *fanoutSub) {
	x.mu.Lock()
	delete(x.subs, sub)
	x.mu.Unlock()
}

// Close implements Exporter: no further events are accepted and every
// subscriber's channel closes once its replay drains. The retained log
// stays readable through Events and late Subscribe calls (which replay
// the full history and then close).
func (x *FanoutExporter) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil
	}
	x.closed = true
	//hydee:allow maprange(non-blocking nudge: each subscriber reads the shared log by cursor, wake order immaterial)
	for sub := range x.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// RunMetrics is the summary a metrics exporter emits on Close: aggregate
// counts over every run it observed.
type RunMetrics struct {
	Runs        int `json:"runs"`
	Aborted     int `json:"aborted"`
	Checkpoints int `json:"checkpoints"`
	Failures    int `json:"failures"`
	Recoveries  int `json:"recoveries"`
	RolledBack  int `json:"rolled_back_ranks"`
	// MaxMakespanVT / SumMakespanVT aggregate completed runs' makespans
	// in virtual nanoseconds.
	MaxMakespanVT int64 `json:"max_makespan_vt"`
	SumMakespanVT int64 `json:"sum_makespan_vt"`
}

type metricsExporter struct {
	mu sync.Mutex
	w  io.Writer
	m  RunMetrics
}

// NewMetricsExporter accumulates run-level counters (runs, checkpoints,
// failures, recovery rounds, makespans) across every observed run and
// writes one JSON summary line to w on Close — the cheap end of the
// exporter spectrum for very long sweeps.
func NewMetricsExporter(w io.Writer) Exporter {
	return &metricsExporter{w: w}
}

// OnEvent implements Observer.
func (x *metricsExporter) OnEvent(ev RunEvent) {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch ev.Kind {
	case EvRunStart:
		x.m.Runs++
	case EvRunAbort:
		x.m.Aborted++
	case EvCheckpoint:
		x.m.Checkpoints++
	case EvFailure:
		x.m.Failures++
	case EvRecoveryEnd:
		x.m.Recoveries++
		if ev.Stats != nil {
			x.m.RolledBack += ev.Stats.RolledBack
		}
	case EvRunComplete:
		vt := int64(ev.VT)
		x.m.SumMakespanVT += vt
		if vt > x.m.MaxMakespanVT {
			x.m.MaxMakespanVT = vt
		}
	}
}

// Close implements Exporter: it writes the summary.
func (x *metricsExporter) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := json.NewEncoder(x.w).Encode(&x.m); err != nil {
		return fmt.Errorf("hydee: metrics exporter: %w", err)
	}
	return nil
}

// runDirExporter fans events out to one inner exporter per observed run,
// each writing its own file — parallel sweep output split per run instead
// of fan-in interleaved.
type runDirExporter struct {
	dir string
	mk  ExporterFactory

	mu     sync.Mutex
	runs   map[int64]*runSink
	closed bool
	err    error
}

type runSink struct {
	f   *os.File
	exp Exporter
}

// NewRunDirExporter creates (if needed) dir and returns an exporter that
// writes every observed run's events to its own file run-<id>.jsonl,
// each driven by an inner exporter built by mk. Run ids are assigned in
// run-start order, so a serial sweep's files are numbered in spec order;
// a parallel sweep's files map to configurations via the events they
// contain. Close flushes and closes every per-run file.
func NewRunDirExporter(dir string, mk ExporterFactory) (Exporter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hydee: run-dir exporter: %w", err)
	}
	return &runDirExporter{dir: dir, mk: mk, runs: make(map[int64]*runSink)}, nil
}

// OnEvent implements Observer: the event is routed to its run's file,
// created on first sight of the run id. The shared lock covers only the
// routing table — concurrent runs' writes go to independent files through
// their own (internally synchronized) inner exporters, so a parallel
// sweep's event streams don't contend on one lock.
func (x *runDirExporter) OnEvent(ev RunEvent) {
	x.mu.Lock()
	if x.err != nil || x.closed {
		x.mu.Unlock()
		return
	}
	sink, ok := x.runs[ev.Run]
	if !ok {
		f, err := os.Create(filepath.Join(x.dir, fmt.Sprintf("run-%05d.jsonl", ev.Run)))
		if err != nil {
			x.err = fmt.Errorf("hydee: run-dir exporter: %w", err)
			x.mu.Unlock()
			return
		}
		sink = &runSink{f: f, exp: x.mk(f)}
		x.runs[ev.Run] = sink
	}
	x.mu.Unlock()
	sink.exp.OnEvent(ev)
}

// Close implements Exporter: every per-run exporter is closed and its
// file flushed; the first error wins. Events arriving after Close are
// dropped — recreating a run's file would truncate what was written.
func (x *runDirExporter) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.closed = true
	err := x.err
	// Sorted run order so "first error wins" picks the same error on
	// every run, not whichever sink map iteration reached first.
	for _, run := range slices.Sorted(maps.Keys(x.runs)) {
		sink := x.runs[run]
		if e := sink.exp.Close(); e != nil && err == nil {
			err = e
		}
		if e := sink.f.Close(); e != nil && err == nil {
			err = fmt.Errorf("hydee: run-dir exporter: %w", e)
		}
	}
	x.runs = make(map[int64]*runSink)
	return err
}

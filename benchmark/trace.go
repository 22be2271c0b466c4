package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hydee"
	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// The tracer is the traced pass's recorder. Everything here lives in the
// benchmark: spans are taken around the calls *into* each layer (protocol
// hooks, store operations, Comm calls of the benchmark-owned program,
// observer events, HTTP requests), never inside the program under test.
//
// Fine-grained calls (one per message) go to an agg — count, sum, log2
// histogram — owned by the goroutine that makes the calls and merged at
// the end of the run; coarse boundaries (run, rank program, checkpoint
// call, store Save/Load, recovery round, job) are kept as spans in memory
// and written out when the benchmark ends.

// agg aggregates the durations of one kind of fine-grained call. Calls
// that took stallCutoff or longer are also summed apart: a protocol hook or
// a send that long did not work, it waited (PreSend gates sends for a whole
// recovery round; a goroutine can lose its core mid-call), and a mean over
// both kinds says nothing about either.
type agg struct {
	N    int64
	Sum  int64 // nanoseconds
	Hist [64]int64
	// StallN / StallSum cover the calls of stallCutoff or more.
	StallN, StallSum int64
}

const stallCutoff = time.Millisecond

func (a *agg) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	a.N++
	a.Sum += ns
	a.Hist[bits.Len64(uint64(ns))%64]++
	if d >= stallCutoff {
		a.StallN++
		a.StallSum += ns
	}
}

func (a *agg) merge(b *agg) {
	a.N += b.N
	a.Sum += b.Sum
	a.StallN += b.StallN
	a.StallSum += b.StallSum
	for i := range a.Hist {
		a.Hist[i] += b.Hist[i]
	}
}

// meanNS is the mean call duration in nanoseconds (0 with no calls).
func (a *agg) meanNS() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.N)
}

// workNS is the mean duration, in nanoseconds, of the calls that did not
// stall, and workSum their total.
func (a *agg) workNS() float64 {
	if a.N == a.StallN {
		return 0
	}
	return float64(a.workSum()) / float64(a.N-a.StallN)
}

func (a *agg) workSum() int64 { return a.Sum - a.StallSum }

// quantileNS approximates the q-quantile from the log2 histogram: the
// geometric middle of the bucket the quantile falls into.
func (a *agg) quantileNS(q float64) float64 {
	if a.N == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(a.N)))
	var seen int64
	for i, c := range a.Hist {
		seen += c
		if seen >= want {
			if i == 0 {
				return 0
			}
			return math.Sqrt(2) * float64(uint64(1)<<(i-1))
		}
	}
	return float64(a.Sum) / float64(a.N)
}

// span is one coarse layer-boundary interval. Start/End are nanoseconds
// since the trace epoch; Parent indexes the causing span (-1 = root); Run
// is the identifier every span of one simulation run or job shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int64  `json:"run"`
}

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	aggs  map[string]*agg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: make(map[string]*agg)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, run int64) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// fold merges a goroutine-local aggregate into the named total.
func (t *tracer) fold(name string, a *agg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst := t.aggs[name]
	if dst == nil {
		dst = &agg{}
		t.aggs[name] = dst
	}
	dst.merge(a)
}

func (t *tracer) agg(name string) *agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		cp := *a
		return &cp
	}
	return &agg{}
}

// spanStats sums, per span name, the total time and the self time (the
// span's duration minus the part of it its child spans cover; children of
// one parent run on one goroutine here, so they never overlap).
type spanStat struct {
	Count  int64   `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	SelfMS float64 `json:"self_ms"`
	durs   []float64
}

func (t *tracer) spanStats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.SumMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[i]) / 1e6
		st.durs = append(st.durs, float64(d)/1e6)
	}
	return out
}

// write stores the spans and aggregates as one JSON document (see
// README.md "Opening the trace").
func (t *tracer) write(path, workload string) error {
	type aggOut struct {
		Count   int64   `json:"count"`
		SumMS   float64 `json:"sum_ms"`
		MeanNS  float64 `json:"mean_ns"`
		P50NS   float64 `json:"p50_ns"`
		P99NS   float64 `json:"p99_ns"`
		Stalls  int64   `json:"stalls"`
		StallMS float64 `json:"stall_ms"`
	}
	stats := t.spanStats()
	t.mu.Lock()
	aggs := make(map[string]aggOut, len(t.aggs))
	names := make([]string, 0, len(t.aggs))
	for name := range t.aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := t.aggs[name]
		aggs[name] = aggOut{a.N, float64(a.Sum) / 1e6, a.meanNS(), a.quantileNS(0.5), a.quantileNS(0.99), a.StallN, float64(a.StallSum) / 1e6}
	}
	doc := struct {
		Workload   string               `json:"workload"`
		Spans      []span               `json:"spans"`
		SpanStats  map[string]*spanStat `json:"span_stats"`
		Aggregates map[string]aggOut    `json:"aggregates"`
	}{workload, t.spans, stats, aggs}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---------------------------------------------------------------------------
// One traced simulation run.

// runTrace ties together the wrappers of one traced run: they share the
// run identifier and know which span is open where, so a store Save is
// recorded as a child of the checkpoint call that caused it and a Load as
// a child of its recovery round.
type runTrace struct {
	tr   *tracer
	id   int64
	root int // the run span

	// ckpt[rank] is the rank's open checkpoint-call span + 1 (0 = none);
	// round the open recovery-round span + 1.
	ckpt  []atomic.Int64
	round atomic.Int64

	stamps runStamps
	prot   *timedProtocol
	store  *timedStore
}

var traceRunIDs atomic.Int64

// newRunTrace prepares the trace context of one run of np ranks; start
// opens its run span.
func (t *tracer) newRunTrace(np int) *runTrace {
	rt := &runTrace{tr: t, id: traceRunIDs.Add(1), root: -1, ckpt: make([]atomic.Int64, np)}
	rt.stamps.rt = rt
	return rt
}

// start opens the run span under the given parent span (-1 for none).
func (rt *runTrace) start(name string, parent int) { rt.root = rt.tr.begin(name, parent, rt.id) }

// wrapProtocol / wrapStore install the timing wrappers.
func (rt *runTrace) wrapProtocol(p hydee.Protocol) hydee.Protocol {
	rt.prot = &timedProtocol{Protocol: p, rt: rt}
	return rt.prot
}

func (rt *runTrace) wrapStore(st hydee.Store) hydee.Store {
	rt.store = &timedStore{Store: st, rt: rt}
	return rt.store
}

// finish closes the run span and folds the per-engine aggregates.
func (rt *runTrace) finish() {
	rt.tr.end(rt.root)
	if rt.prot != nil {
		rt.prot.flush()
	}
}

func (rt *runTrace) openCheckpoint(rank int) int { return int(rt.ckpt[rank].Load()) - 1 }
func (rt *runTrace) openRound() int              { return int(rt.round.Load()) - 1 }

// rankTimer is the goroutine-local record of one rank incarnation: its
// span, and the time spent inside each kind of Comm call.
type rankTimer struct {
	rt               *runTrace
	rank, span       int
	start            time.Time
	send, recv, ckpt agg
	ckptStart        time.Time
}

func (rt *runTrace) rankStart(rank int) *rankTimer {
	return &rankTimer{rt: rt, rank: rank, start: time.Now(), span: rt.tr.begin("apps.rank", rt.root, rt.id)}
}

func (tm *rankTimer) checkpointBegin() {
	tm.ckptStart = time.Now()
	tm.rt.ckpt[tm.rank].Store(int64(tm.rt.tr.begin("mpi.checkpoint-call", tm.span, tm.rt.id)) + 1)
}

func (tm *rankTimer) checkpointEnd() {
	tm.ckpt.add(time.Since(tm.ckptStart))
	tm.rt.tr.end(tm.rt.openCheckpoint(tm.rank))
	tm.rt.ckpt[tm.rank].Store(0)
}

// finish closes the rank span and folds the rank's aggregates.
func (tm *rankTimer) finish() {
	tr := tm.rt.tr
	tr.end(tm.span)
	tr.fold("mpi.send_call", &tm.send)
	tr.fold("mpi.recv_call", &tm.recv)
	tr.fold("mpi.checkpoint_call", &tm.ckpt)
	tr.fold("apps.rank_wall", &agg{N: 1, Sum: int64(time.Since(tm.start))})
}

// timeRanks wraps a program the benchmark does not own: only the rank
// span and the rank's wall time can be taken from outside.
func (rt *runTrace) timeRanks(prog hydee.Program) hydee.Program {
	return func(c *hydee.Comm) error {
		defer rt.rankStart(c.Rank()).finish()
		return prog(c)
	}
}

// ---------------------------------------------------------------------------
// core: timing Protocol / Engine / Recovery wrappers.

// timedProtocol wraps a protocol so every engine hook and every recovery
// coordinator run is timed. Engines run on their process's goroutine, so
// each keeps private aggregates; flush folds them into the tracer once the
// run has returned.
type timedProtocol struct {
	rollback.Protocol
	rt *runTrace

	mu      sync.Mutex
	engines []*timedEngine
}

func (p *timedProtocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	e := &timedEngine{Engine: p.Protocol.NewEngine(rank, px)}
	p.mu.Lock()
	p.engines = append(p.engines, e)
	p.mu.Unlock()
	return e
}

func (p *timedProtocol) NewRecovery(rx rollback.RecoveryContext) rollback.Recovery {
	r := p.Protocol.NewRecovery(rx)
	if r == nil {
		return nil
	}
	return &timedRecovery{inner: r, p: p}
}

// flush merges the engines' aggregates; call after the run returned.
func (p *timedProtocol) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.engines {
		p.rt.tr.fold("core.presend", &e.preSend)
		p.rt.tr.fold("core.ondeliver", &e.onDeliver)
		p.rt.tr.fold("core.onctl", &e.onCtl)
		p.rt.tr.fold("core.oncheckpoint", &e.onCheckpoint)
		p.rt.tr.fold("core.onrestore", &e.onRestore)
	}
	p.engines = nil
}

type timedEngine struct {
	rollback.Engine
	preSend, onDeliver, onCtl, onCheckpoint, onRestore agg
}

func (e *timedEngine) PreSend(m *transport.Msg) (rollback.SendVerdict, error) {
	t0 := time.Now()
	v, err := e.Engine.PreSend(m)
	e.preSend.add(time.Since(t0))
	return v, err
}

func (e *timedEngine) OnDeliver(m *transport.Msg) {
	t0 := time.Now()
	e.Engine.OnDeliver(m)
	e.onDeliver.add(time.Since(t0))
}

func (e *timedEngine) OnCtl(m *transport.Msg) {
	t0 := time.Now()
	e.Engine.OnCtl(m)
	e.onCtl.add(time.Since(t0))
}

func (e *timedEngine) OnCheckpoint(s *checkpoint.Snapshot) {
	t0 := time.Now()
	e.Engine.OnCheckpoint(s)
	e.onCheckpoint.add(time.Since(t0))
}

func (e *timedEngine) OnRestore(s *checkpoint.Snapshot, round *rollback.RoundInfo) {
	t0 := time.Now()
	e.Engine.OnRestore(s, round)
	e.onRestore.add(time.Since(t0))
}

type timedRecovery struct {
	inner rollback.Recovery
	p     *timedProtocol
}

func (r *timedRecovery) Run(round rollback.RoundInfo) (rollback.RecoveryStats, error) {
	rt := r.p.rt
	id := rt.tr.begin("core.recovery-run", rt.openRound(), rt.id)
	st, err := r.inner.Run(round)
	rt.tr.end(id)
	return st, err
}

// ---------------------------------------------------------------------------
// checkpoint: timing Store wrapper.

// timedStore times every Save and Load (one span each) and counts the
// real bytes a snapshot carries. Saves are admitted one at a time, but
// recovery loads can overlap them, so the span list is the tracer's
// (locked) one.
type timedStore struct {
	hydee.Store
	rt *runTrace

	realBytes atomic.Int64
}

// snapshotRealBytes is the number of real (not modeled) payload bytes a
// store has to move for s.
func snapshotRealBytes(s *hydee.Snapshot) int64 {
	n := int64(len(s.AppState) + len(s.ProtState))
	for _, m := range s.Mailbox {
		n += int64(len(m.Data))
	}
	return n
}

func (st *timedStore) Save(s *hydee.Snapshot, at vtime.Time) (vtime.Time, error) {
	// Save runs on the saving rank's goroutine, inside its checkpoint call.
	id := st.rt.tr.begin("checkpoint.save", st.rt.openCheckpoint(s.Rank), st.rt.id)
	end, err := st.Store.Save(s, at)
	st.rt.tr.end(id)
	st.realBytes.Add(snapshotRealBytes(s))
	return end, err
}

func (st *timedStore) Load(rank, seq int, at vtime.Time) (*hydee.Snapshot, vtime.Time, bool) {
	id := st.rt.tr.begin("checkpoint.load", st.rt.openRound(), st.rt.id)
	s, end, ok := st.Store.Load(rank, seq, at)
	st.rt.tr.end(id)
	return s, end, ok
}

// ---------------------------------------------------------------------------
// mpi: wall-clock stamps of the lifecycle events (supervisor anatomy).

// runStamps is an Observer recording when, in host time, each lifecycle
// event of one run was emitted. The runtime serializes observer calls.
type runStamps struct {
	rt *runTrace

	lastFinished, failure, recStart time.Time
	failToRecStart, recStartToEnd   []float64 // ms, one per round
}

func (o *runStamps) OnEvent(ev hydee.RunEvent) {
	now := time.Now()
	switch ev.Kind {
	case hydee.EvFailure:
		if o.failure.IsZero() {
			o.failure = now
		}
	case hydee.EvRecoveryStart:
		if !o.failure.IsZero() {
			o.failToRecStart = append(o.failToRecStart, ms(now.Sub(o.failure)))
		}
		o.failure = time.Time{}
		o.recStart = now
		o.rt.round.Store(int64(o.rt.tr.begin("mpi.recovery-round", o.rt.root, o.rt.id)) + 1)
	case hydee.EvRecoveryEnd:
		o.recStartToEnd = append(o.recStartToEnd, ms(now.Sub(o.recStart)))
		o.rt.tr.end(o.rt.openRound())
		o.rt.round.Store(0)
	case hydee.EvRankFinished:
		o.lastFinished = now
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

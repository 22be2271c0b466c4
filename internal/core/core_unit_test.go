package core

import (
	"errors"
	"fmt"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// fakeProc implements rollback.Proc for engine unit tests. Control messages
// sent by the engine are captured; WaitCtl drains a scripted queue.
type fakeProc struct {
	topo    *rollback.Topology
	clock   *vtime.Clock
	model   netmodel.Model
	metrics rollback.Metrics

	sentCtl []capturedCtl
	sentRaw []*transport.Msg
	// queue feeds WaitCtl; each entry is dispatched to the engine.
	queue  []*transport.Msg
	engine rollback.Engine
}

type capturedCtl struct {
	dst  int
	body any
}

func newFakeProc(assign []int) *fakeProc {
	return &fakeProc{
		topo:  rollback.NewTopology(assign),
		clock: vtime.NewClock(0),
		model: netmodel.Myrinet10G(),
	}
}

func (f *fakeProc) Topo() *rollback.Topology   { return f.topo }
func (f *fakeProc) Clock() *vtime.Clock        { return f.clock }
func (f *fakeProc) Model() netmodel.Model      { return f.model }
func (f *fakeProc) Metrics() *rollback.Metrics { return &f.metrics }
func (f *fakeProc) RecoveryID() int            { return f.topo.NP }
func (f *fakeProc) Held() []*transport.Msg     { return nil }

func (f *fakeProc) SendCtl(dst int, body any, wire int) {
	f.sentCtl = append(f.sentCtl, capturedCtl{dst: dst, body: body})
	f.metrics.CtlMsgs++
}

func (f *fakeProc) SendAppRaw(m *transport.Msg) { f.sentRaw = append(f.sentRaw, m) }

func (f *fakeProc) WaitCtl(pred func() bool) error {
	for !pred() {
		if len(f.queue) == 0 {
			return errors.New("fakeProc: WaitCtl starved")
		}
		m := f.queue[0]
		f.queue = f.queue[1:]
		f.engine.OnCtl(m)
	}
	return nil
}

func (f *fakeProc) ctlOfType(match func(any) bool) []capturedCtl {
	var out []capturedCtl
	for _, c := range f.sentCtl {
		if match(c.body) {
			out = append(out, c)
		}
	}
	return out
}

func newTestEngine(rank int, assign []int) (*engine, *fakeProc) {
	px := newFakeProc(assign)
	e := New().NewEngine(rank, px).(*engine)
	px.engine = e
	return e, px
}

func appMsg(src, dst, tag, wire int) *transport.Msg {
	return &transport.Msg{Src: src, Dst: dst, Kind: transport.App, Tag: tag, WireLen: wire, Data: []byte{1}}
}

func TestPhaseRuleIntraVsInter(t *testing.T) {
	// Ranks 0,1 in cluster 0; rank 2 in cluster 1.
	e, _ := newTestEngine(0, []int{0, 0, 1})
	if e.CurrentPhase() != 1 {
		t.Fatalf("initial phase %d, want 1 (§III-B)", e.CurrentPhase())
	}
	// Intra-cluster delivery: phase = max(phase, msg phase).
	m := appMsg(1, 0, 1, 10)
	m.Phase = 3
	m.Date = 1
	e.OnDeliver(m)
	if e.CurrentPhase() != 3 {
		t.Fatalf("intra rule: phase %d, want 3", e.CurrentPhase())
	}
	// Inter-cluster delivery: phase = max(phase, msg phase + 1).
	m2 := appMsg(2, 0, 1, 10)
	m2.Phase = 3
	m2.Date = 1
	e.OnDeliver(m2)
	if e.CurrentPhase() != 4 {
		t.Fatalf("inter rule: phase %d, want 4", e.CurrentPhase())
	}
	// A lower-phase delivery never decreases the phase.
	m3 := appMsg(2, 0, 1, 10)
	m3.Phase = 1
	m3.Date = 2
	e.OnDeliver(m3)
	if e.CurrentPhase() != 4 {
		t.Fatalf("phase decreased to %d", e.CurrentPhase())
	}
}

func TestDateIncrementsOnSendAndDeliver(t *testing.T) {
	e, _ := newTestEngine(0, []int{0, 0})
	m := appMsg(0, 1, 1, 10)
	if _, err := e.PreSend(m); err != nil {
		t.Fatal(err)
	}
	if m.Date != 1 || e.CurrentDate() != 1 {
		t.Fatalf("send date %d / %d", m.Date, e.CurrentDate())
	}
	in := appMsg(1, 0, 1, 10)
	in.Date = 1
	e.OnDeliver(in)
	if e.CurrentDate() != 2 {
		t.Fatalf("date after delivery %d, want 2 (Algorithm 1 line 17)", e.CurrentDate())
	}
}

func TestLoggingOnlyInterCluster(t *testing.T) {
	e, px := newTestEngine(0, []int{0, 0, 1})
	intra := appMsg(0, 1, 1, 100)
	if _, err := e.PreSend(intra); err != nil {
		t.Fatal(err)
	}
	if px.metrics.LoggedMsgs != 0 {
		t.Fatal("intra-cluster message was logged")
	}
	inter := appMsg(0, 2, 1, 1<<20)
	v, err := e.PreSend(inter)
	if err != nil {
		t.Fatal(err)
	}
	if px.metrics.LoggedMsgs != 1 || px.metrics.LoggedBytes != 1<<20 {
		t.Fatalf("inter-cluster logging wrong: %+v", px.metrics)
	}
	if v.ExtraCPU <= 0 {
		t.Fatal("logging copy of a large payload should cost visible CPU")
	}
	if got := e.logs.above(2, 0); len(got) != 1 || got[0].Date != inter.Date {
		t.Fatalf("log store content wrong: %v", got)
	}
}

func TestPiggybackStrategyBySize(t *testing.T) {
	e, _ := newTestEngine(0, []int{0, 0})
	small := appMsg(0, 1, 1, netmodel.InlinePiggybackMax)
	vs, _ := e.PreSend(small)
	if vs.PiggyWire != netmodel.PiggybackBytes {
		t.Fatalf("small message should carry inline piggyback, got %d", vs.PiggyWire)
	}
	large := appMsg(0, 1, 1, netmodel.InlinePiggybackMax+1)
	vl, _ := e.PreSend(large)
	if vl.PiggyWire != 0 {
		t.Fatal("large message should not inflate the wire")
	}
	if vl.ExtraCPU <= 0 {
		t.Fatal("large message should pay the separate-control-message CPU")
	}
}

func TestExtraPiggyOption(t *testing.T) {
	px := newFakeProc([]int{0, 0})
	e := NewWithOptions(Options{Name: "mlog", ExtraPiggyBytes: 8}).NewEngine(0, px).(*engine)
	px.engine = e
	m := appMsg(0, 1, 1, 100)
	v, _ := e.PreSend(m)
	if v.PiggyWire != netmodel.PiggybackBytes+8 {
		t.Fatalf("determinant bytes not piggybacked: %d", v.PiggyWire)
	}
}

func TestRPPRecording(t *testing.T) {
	e, _ := newTestEngine(0, []int{0, 1})
	m := appMsg(1, 0, 1, 10)
	m.Date = 5
	m.Phase = 2
	e.OnDeliver(m)
	ch := e.rpp[1]
	if ch == nil || ch.MaxDate != 5 || ch.Phases[5] != 2 {
		t.Fatalf("RPP wrong: %+v", ch)
	}
}

func TestAdmitDropsStaleIncSeen(t *testing.T) {
	e, _ := newTestEngine(0, []int{0, 1})
	e.myInc = 2
	m := appMsg(1, 0, 1, 10)
	m.IncSeen = 1
	if e.Admit(m) {
		t.Fatal("admitted a message sent before the sender learned of the restart")
	}
	m.IncSeen = 2
	if !e.Admit(m) {
		t.Fatal("rejected a current message")
	}
}

func TestLogStoreAboveAndPrune(t *testing.T) {
	ls := newLogStore()
	for d := int64(1); d <= 10; d++ {
		ls.add(logEntry{Dst: 7, Date: d * 10, WireLen: 5})
	}
	above := ls.above(7, 50)
	if len(above) != 5 || above[0].Date != 60 {
		t.Fatalf("above: %v", above)
	}
	if ls.above(7, 1000) != nil && len(ls.above(7, 1000)) != 0 {
		t.Fatal("above past the end should be empty")
	}
	reclaimed := ls.pruneUpTo(7, 50)
	if reclaimed != 25 || ls.Bytes != 25 {
		t.Fatalf("prune reclaimed %d, bytes %d", reclaimed, ls.Bytes)
	}
	if got := ls.above(7, 0); len(got) != 5 || got[0].Date != 60 {
		t.Fatalf("post-prune content: %v", got)
	}
	// Pruning everything removes the channel.
	ls.pruneUpTo(7, 1000)
	if len(ls.PerDst) != 0 || ls.Bytes != 0 {
		t.Fatalf("full prune left %+v", ls)
	}
}

func TestGCAckPrunesPeerState(t *testing.T) {
	e, px := newTestEngine(0, []int{0, 1})
	// Log three messages to rank 1.
	for i := 0; i < 3; i++ {
		m := appMsg(0, 1, 1, 100)
		if _, err := e.PreSend(m); err != nil {
			t.Fatal(err)
		}
	}
	// Record deliveries from rank 1.
	for d := int64(1); d <= 3; d++ {
		in := appMsg(1, 0, 1, 10)
		in.Date = d
		in.Phase = 1
		e.OnDeliver(in)
	}
	ack := &transport.Msg{Src: 1, Kind: transport.Ctl, CtlBody: GCAck{CkptDate: 2, DeliveredFromYou: 2}}
	e.OnCtl(ack)
	if px.metrics.GCReclaimed != 200 {
		t.Fatalf("reclaimed %d, want 200", px.metrics.GCReclaimed)
	}
	if len(e.logs.PerDst[1]) != 1 {
		t.Fatalf("log entries left: %d", len(e.logs.PerDst[1]))
	}
	ch := e.rpp[1]
	if _, ok := ch.Phases[2]; ok {
		t.Fatal("RPP entry <= ack CkptDate not pruned")
	}
	if _, ok := ch.Phases[3]; !ok {
		t.Fatal("RPP entry above CkptDate wrongly pruned")
	}
}

func TestGCAckOnlyAfterSecondCheckpoint(t *testing.T) {
	// The ack carries the previous checkpoint's watermarks, so no ack may
	// be emitted before two checkpoints completed (DESIGN.md: a failure
	// racing checkpoint N can force a restore to N-1).
	e, px := newTestEngine(0, []int{0, 1})
	deliver := func(date int64) {
		in := appMsg(1, 0, 1, 10)
		in.Date = date
		e.OnDeliver(in)
	}
	acks := func() []capturedCtl {
		return px.ctlOfType(func(b any) bool { _, ok := b.(GCAck); return ok })
	}
	// ckpt takes checkpoint seq and reads its state as the save
	// encodes it, before the engine runs again.
	ckpt := func(seq int) *engineState { return checkpointState(t, e, seq) }
	deliver(1)
	if len(acks()) != 0 {
		t.Fatal("ack before any checkpoint")
	}
	if st := ckpt(1); st.GCSafeValid || st.GCPendingDeliv[1] != 1 {
		t.Fatalf("checkpoint 1 saved safe=%v pending=%v, want no safe watermark and pending 1", st.GCSafeValid, st.GCPendingDeliv)
	}
	deliver(2)
	if len(acks()) != 0 {
		t.Fatal("ack after only one checkpoint (unsafe for N-1 restore)")
	}
	if st := ckpt(2); !st.GCSafeValid || st.GCSafeDeliv[1] != 1 || st.GCPendingDeliv[1] != 2 {
		t.Fatalf("checkpoint 2 saved safe=%v %v pending=%v, want safe 1 and pending 2", st.GCSafeValid, st.GCSafeDeliv, st.GCPendingDeliv)
	}
	deliver(3)
	if len(acks()) != 1 {
		t.Fatalf("expected one ack after the second checkpoint, got %d", len(acks()))
	}
	// The ack must carry checkpoint 1's watermarks (delivered date 1),
	// not checkpoint 2's (delivered date 2).
	if got := acks()[0].body.(GCAck); got.DeliveredFromYou != 1 {
		t.Fatalf("ack watermark %d, want 1 (previous checkpoint)", got.DeliveredFromYou)
	}
	// Each checkpoint acks each sender again, once.
	deliver(4)
	ckpt(3)
	deliver(5)
	deliver(6)
	if got := acks(); len(got) != 2 || got[1].body.(GCAck).DeliveredFromYou != 2 {
		t.Fatalf("acks after the third checkpoint %+v, want a second one carrying 2", got)
	}
}

// checkpointState runs e's checkpoint hook for checkpoint seq and returns
// the protocol state it saves, encoded as the runtime's save encodes it
// and decoded.
func checkpointState(t *testing.T, e *engine, seq int) *engineState {
	t.Helper()
	snap := &checkpoint.Snapshot{Rank: e.rank, Seq: seq}
	e.OnCheckpoint(snap)
	release, err := snap.BorrowProtState()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(snap.ProtState) == 0 {
		t.Fatal("no protocol state captured")
	}
	st, err := decodeEngineState(snap.ProtState)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEngineStateRoundTrip(t *testing.T) {
	e, _ := newTestEngine(0, []int{0, 1})
	m := appMsg(0, 1, 9, 64)
	if _, err := e.PreSend(m); err != nil {
		t.Fatal(err)
	}
	in := appMsg(1, 0, 1, 10)
	in.Date = 4
	in.Phase = 2
	e.OnDeliver(in)

	snap := &checkpoint.Snapshot{Rank: 0, Seq: 1}
	e.OnCheckpoint(snap)
	if len(snap.ProtState) != 0 {
		t.Fatal("protocol state encoded on the rank's task, not left to the save")
	}
	release, err := snap.BorrowProtState()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	st, err := decodeEngineState(snap.ProtState)
	if err != nil {
		t.Fatal(err)
	}
	if st.Date != e.date || st.Phase != e.phase {
		t.Fatalf("state mismatch: %+v", st)
	}
	if st.Logs.Bytes != 64 || st.RPP[1].MaxDate != 4 {
		t.Fatalf("state content: logs=%d rpp=%+v", st.Logs.Bytes, st.RPP[1])
	}
	// The log volume is part of the checkpoint size (Alg. 1 line 21).
	if snap.ModelBytes < 64 {
		t.Fatalf("checkpoint cost %d does not include the log", snap.ModelBytes)
	}
}

func TestSuppressionWatermark(t *testing.T) {
	e, px := newTestEngine(0, []int{0, 1})
	// Simulate a restart: rank 0 rolled back alone in cluster 0.
	snap := &checkpoint.Snapshot{Rank: 0}
	e.OnRestore(snap, &rollback.RoundInfo{
		Round:      1,
		RolledBack: []int{0},
		AllIncs:    []int32{1, 0},
	})
	// Survivor 1 answers: it holds messages from us up to date 2.
	e.OnCtl(&transport.Msg{Src: 1, Kind: transport.Ctl, CtlBody: LastDate{Round: 1, Held: 2}})
	// Release the first-send gate.
	px.queue = append(px.queue, &transport.Msg{Src: 2, Kind: transport.Ctl, CtlBody: NotifySendMsg{Round: 1, Phase: 1}})

	// First two re-executed sends are suppressed as orphans.
	for want := int64(1); want <= 2; want++ {
		m := appMsg(0, 1, 1, 10)
		v, err := e.PreSend(m)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Suppress {
			t.Fatalf("send date %d not suppressed (watermark 2)", m.Date)
		}
	}
	// They must still be (re-)logged for later failures of the receiver.
	if len(e.logs.PerDst[1]) != 2 {
		t.Fatalf("suppressed sends not re-logged: %d", len(e.logs.PerDst[1]))
	}
	// Orphan notifications went to the recovery process.
	notes := px.ctlOfType(func(b any) bool { _, ok := b.(OrphanNotification); return ok })
	if len(notes) != 2 {
		t.Fatalf("orphan notifications: %d", len(notes))
	}
	// The third send passes the watermark and flows normally.
	m := appMsg(0, 1, 1, 10)
	v, err := e.PreSend(m)
	if err != nil {
		t.Fatal(err)
	}
	if v.Suppress {
		t.Fatal("send above the watermark suppressed")
	}
}

func TestLogDrainStall(t *testing.T) {
	// §V-C future work: a 100 MB/s device with a 1 MB staging buffer.
	// Logging 1 MB bursts faster than the drain must eventually stall the
	// sender; an unbounded buffer never stalls.
	px := newFakeProc([]int{0, 1})
	e := NewWithOptions(Options{LogDrainBPS: 100e6, LogMemBudget: 1 << 20}).NewEngine(0, px).(*engine)
	px.engine = e
	// Non-stall components of ExtraCPU for a large logged message: the
	// overlapped copy plus the separate piggyback control message.
	baseCPU := px.model.CopyCost(512<<10, true) + px.model.SendOverhead(netmodel.PiggybackBytes)
	var stalled vtime.Duration
	for i := 0; i < 8; i++ {
		m := appMsg(0, 1, 1, 512<<10)
		v, err := e.PreSend(m)
		if err != nil {
			t.Fatal(err)
		}
		stalled += v.ExtraCPU - baseCPU
	}
	if stalled <= 0 {
		t.Fatal("overloaded staging buffer never stalled the sender")
	}

	px2 := newFakeProc([]int{0, 1})
	e2 := NewWithOptions(Options{LogDrainBPS: 100e6}).NewEngine(0, px2).(*engine)
	px2.engine = e2
	for i := 0; i < 8; i++ {
		m := appMsg(0, 1, 1, 512<<10)
		v, err := e2.PreSend(m)
		if err != nil {
			t.Fatal(err)
		}
		if v.ExtraCPU > baseCPU {
			t.Fatal("unbounded staging buffer stalled")
		}
	}
}

func TestLogDrainKeepsRecoveryIntact(t *testing.T) {
	// The drained log must still replay: drain timing is a cost model,
	// not a different data structure.
	px := newFakeProc([]int{0, 1})
	e := NewWithOptions(Options{LogDrainBPS: 50e6, LogMemBudget: 4096}).NewEngine(0, px).(*engine)
	px.engine = e
	for i := 0; i < 3; i++ {
		m := appMsg(0, 1, 1, 8192)
		if _, err := e.PreSend(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.logs.above(1, 0)); got != 3 {
		t.Fatalf("log entries %d, want 3", got)
	}
}

func TestRestartScope(t *testing.T) {
	p := New()
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	scope := p.RestartScope(topo, []int{3})
	if fmt.Sprint(scope) != "[2 3]" {
		t.Fatalf("scope: %v", scope)
	}
	scope = p.RestartScope(topo, []int{0, 5})
	if fmt.Sprint(scope) != "[0 1 4 5]" {
		t.Fatalf("multi-cluster scope: %v", scope)
	}
}

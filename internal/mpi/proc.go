package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// shutdownBody is the runtime-internal control message that ends lingering
// process loops once the whole run has completed.
type shutdownBody struct{}

// shutdownSendVT stamps the end-of-run shutdown messages at the far virtual
// future, so they sort after every real message still queued and a lingering
// process drains its mailbox in virtual-time order before exiting.
const shutdownSendVT = vtime.Time(math.MaxInt64 >> 1)

// errShutdown reports a shutdown observed while a program was still
// running; it indicates a runtime bug or a program that ignored errors.
var errShutdown = errors.New("mpi: shutdown during program execution")

// markerWire is the modeled size of a checkpoint flush marker.
const markerWire = 8

// Proc is one simulated process: the runtime side of a Comm, run as a task
// of the run's driver.
type Proc struct {
	rt    *Runtime
	rank  int
	ep    *transport.Endpoint
	clock *vtime.Clock

	engine  rollback.Engine
	metrics rollback.Metrics

	// pending holds application messages popped from the endpoint but not
	// yet matched by a receive.
	pending []*transport.Msg
	// outbox holds the sends made since the process's last plane
	// operation; the next one (a receive or a turn) enqueues them inside
	// its own plane mutation, and event flushes them before the
	// supervisor hears from the process (the transport package's outbox
	// rule says why delaying them is safe).
	outbox []*transport.Msg
	// markers counts the flush markers received per checkpoint sequence;
	// each scope peer sends one per sequence.
	markers map[int]int
	// take is every receive's take callback, p.takeMsg bound once; src,
	// tag, matching and until say what the receive in progress waits for.
	take     func(*transport.Msg) transport.Verdict
	src, tag int
	matching bool
	until    func() bool

	epoch       int
	ckptCallIdx int
	ckptsDone   int
	collSeq     int64

	snapshot *checkpoint.Snapshot
	round    *rollback.RoundInfo
	inc      int32

	stateTarget any
	stateBytes  int64
	result      any
	resultSet   bool

	comm *Comm
}

func (rt *Runtime) newProc(rank int, snap *checkpoint.Snapshot, round *rollback.RoundInfo, startVT vtime.Time) *Proc {
	p := &Proc{
		rt:      rt,
		rank:    rank,
		ep:      rt.net.Endpoint(rank),
		clock:   vtime.NewClock(startVT),
		markers: make(map[int]int),
		round:   round,
		inc:     rt.net.IncOf(rank),
	}
	if snap != nil {
		p.snapshot = snap
		p.epoch = snap.Seq
		p.ckptCallIdx = snap.CkptCallIdx
		p.collSeq = snap.CollSeq
		for _, m := range snap.Mailbox {
			mm := *m
			mm.Data = append([]byte(nil), m.Data...)
			p.pending = append(p.pending, &mm)
		}
	}
	p.engine = rt.prot.NewEngine(rank, p)
	p.comm = &Comm{p: p}
	p.take = p.takeMsg
	return p
}

// run executes the program and the linger phase: the task of one
// incarnation.
func (p *Proc) run() {
	defer p.collect()

	if p.round != nil {
		snap := p.snapshot
		if snap == nil {
			// No checkpoint yet: the process rolls back to its initial
			// state; the engine still runs the restart protocol.
			snap = &checkpoint.Snapshot{Rank: p.rank}
		}
		p.engine.OnRestore(snap, p.round)
		p.metrics.Restarts++
	}

	err := p.rt.program(p.comm)
	switch {
	case err == nil:
		p.event(procEvent{kind: evFinished, rank: p.rank, vt: p.clock.Now()})
		lerr := p.linger()
		if errors.Is(lerr, transport.ErrKilled) {
			p.event(procEvent{kind: evDied, rank: p.rank, vt: p.clock.Now()})
		}
	case errors.Is(err, transport.ErrKilled):
		p.event(procEvent{kind: evDied, rank: p.rank, vt: p.clock.Now()})
	default:
		p.event(procEvent{kind: evFatal, rank: p.rank, vt: p.clock.Now(), err: err})
	}
}

// event reports ev to the supervisor once the outbox has reached the plane:
// what the supervisor does next — kill the process and bump its
// incarnation, restart its scope, end the run — must find every send the
// process made before it.
func (p *Proc) event(ev procEvent) {
	if len(p.outbox) > 0 {
		// Every destination is a rank or the recovery endpoint, which exist
		// from the start, so the batch cannot fail.
		_ = p.rt.net.SendBatch(p.outbox)
		p.sent()
	}
	p.rt.event(ev)
}

// post buffers m for the process's next plane operation.
func (p *Proc) post(m *transport.Msg) { p.outbox = append(p.outbox, m) }

// sent empties the outbox once a plane call has enqueued it.
func (p *Proc) sent() {
	clear(p.outbox)
	p.outbox = p.outbox[:0]
}

// recv flushes the outbox and receives the next message takeMsg does not
// consume (Endpoint.FlushRecv), or nil once until holds.
func (p *Proc) recv() (*transport.Msg, error) {
	m, err := p.ep.FlushRecv(p.outbox, p.clock.Now(), p.take)
	p.sent()
	return m, err
}

// turn flushes the outbox and waits for the (vt, rank) turn
// (Endpoint.FlushAwaitTurn).
func (p *Proc) turn(vt vtime.Time) error {
	err := p.ep.FlushAwaitTurn(p.outbox, vt)
	p.sent()
	return err
}

// collect publishes the incarnation's metrics and result to the runtime.
func (p *Proc) collect() {
	p.rt.metrics[p.rank].Add(&p.metrics)
	if p.clock.Now() > p.rt.finalVT[p.rank] {
		p.rt.finalVT[p.rank] = p.clock.Now()
	}
	if p.resultSet {
		p.rt.results[p.rank] = p.result
	}
}

// linger keeps servicing protocol traffic after the program finished, so
// the process can still answer rollback notifications, re-send logged
// messages, and take part in recovery rounds of other clusters.
func (p *Proc) linger() error {
	p.matching, p.until = false, nil
	for {
		m, err := p.recv()
		if err != nil {
			return err
		}
		if p.handleCtl(m) {
			return nil
		}
	}
}

// takeMsg is the take callback of every receive (the transport package's
// take rule): it does, inside whichever mutation finds the message
// deliverable, what the process's own loop would do with it before
// receiving again. It records a marker and
// merges the clock, or buffers an App message through Admit, and returns
// Stop if until then holds; a Ctl message, and an App message recvMatch
// delivers, go to the process.
func (p *Proc) takeMsg(m *transport.Msg) transport.Verdict {
	switch m.Kind {
	case transport.Ctl:
		return transport.Deliver
	case transport.Marker:
		p.clock.MergeAtLeast(m.ArriveVT)
		p.markers[m.Epoch]++
		p.rt.release(m)
	case transport.App:
		if !p.engine.Admit(m) {
			p.rt.release(m)
			break
		}
		if p.matching && matches(m, p.src, p.tag) {
			return transport.Deliver
		}
		p.pending = append(p.pending, m)
	}
	if p.until != nil && p.until() {
		return transport.Stop
	}
	return transport.Keep
}

// handleCtl runs a delivered control message; it reports a shutdown.
func (p *Proc) handleCtl(m *transport.Msg) bool {
	if _, ok := m.CtlBody.(shutdownBody); ok {
		return true
	}
	p.clock.MergeAtLeast(m.ArriveVT)
	p.engine.OnCtl(m)
	return false
}

// waitCtl blocks until pred holds, processing control traffic and buffering
// application traffic meanwhile.
func (p *Proc) waitCtl(pred func() bool) error {
	p.matching, p.until = false, pred
	for !pred() {
		m, err := p.recv()
		if err != nil {
			return err
		}
		if m != nil && p.handleCtl(m) {
			return errShutdown
		}
	}
	return nil
}

// maybeFail consults the rank's failure plan at this interaction point.
// Once the run aborts it reports ErrKilled instead: a rank whose operations
// never reach the delivery plane would not see its endpoint die.
func (p *Proc) maybeFail() error {
	if p.rt.aborted.Load() {
		return transport.ErrKilled
	}
	if p.rt.plan == nil {
		return nil
	}
	ranks := failure.Next(&p.rt.plan[p.rank], p.clock.Now(), p.rt.sends[p.rank], p.ckptsDone)
	if ranks == nil {
		return nil
	}
	// Admit the detection in virtual-time order, as checkpoint writes are:
	// the supervisor sees failures sorted by (detection VT, rank), not by
	// real-time arrival. A trigger past this rank's doom fence is refused
	// here and dropped — the incarnation is already dead in virtual time.
	if err := p.turn(p.clock.Now()); err != nil {
		return err
	}
	p.event(procEvent{kind: evFail, rank: p.rank, vt: p.clock.Now(), ranks: ranks})
	// The victim stops acting immediately; the supervisor kills the rest
	// of the scope.
	return transport.ErrKilled
}

// send implements the application-level Post event.
func (p *Proc) send(dst, tag int, data []byte, wire int) error {
	if err := p.maybeFail(); err != nil {
		return err
	}
	if dst < 0 || dst >= p.rt.cfg.NP {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", p.rank, dst)
	}
	if dst == p.rank {
		return fmt.Errorf("mpi: rank %d: self-send not supported", p.rank)
	}
	if wire <= 0 {
		wire = len(data)
	}
	m := p.rt.newMsg()
	*m = transport.Msg{
		Src:     p.rank,
		Dst:     dst,
		Kind:    transport.App,
		Tag:     tag,
		Data:    append([]byte(nil), data...),
		WireLen: wire,
	}
	verdict, err := p.engine.PreSend(m)
	if err != nil {
		return err
	}
	p.metrics.AppSends++
	p.metrics.AppBytes += int64(wire)
	p.rt.sends[p.rank]++
	if rec := p.rt.rec; rec != nil {
		rec.Record(trace.Event{
			Op: trace.Send, Proc: p.rank, Peer: dst,
			Date: m.Date, MsgDate: m.Date, Phase: m.Phase, MsgPhase: m.Phase,
			Tag: tag, Bytes: wire, Digest: trace.PayloadDigest(m.Data),
			Replay: p.round != nil, Inc: p.inc,
		})
	}
	if verdict.Suppress {
		p.metrics.Suppressed++
		p.rt.release(m)
		return nil
	}
	m.PiggyLen = verdict.PiggyWire
	p.metrics.PiggyBytes += int64(verdict.PiggyWire)
	p.clock.Advance(p.rt.model.SendOverhead(m.Wire()) + verdict.ExtraCPU)
	m.SendVT = p.clock.Now()
	m.Epoch = p.epoch
	p.post(m)
	return nil
}

func matches(m *transport.Msg, src, tag int) bool {
	if src != AnySource && m.Src != src {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// recvMatch implements the application-level Delivery event. Once no
// pending message matches, only a popped one can: takeMsg buffers every
// other App message, and Ctl handling leaves pending alone.
func (p *Proc) recvMatch(src, tag int) (*transport.Msg, error) {
	if err := p.maybeFail(); err != nil {
		return nil, err
	}
	for i, m := range p.pending {
		if matches(m, src, tag) {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			p.deliver(m)
			return m, nil
		}
	}
	p.src, p.tag, p.matching, p.until = src, tag, true, nil
	for {
		m, err := p.recv()
		if err != nil {
			return nil, err
		}
		if m.Kind == transport.App {
			p.deliver(m)
			return m, nil
		}
		if p.handleCtl(m) {
			return nil, errShutdown
		}
	}
}

func (p *Proc) deliver(m *transport.Msg) {
	p.clock.MergeAtLeast(m.ArriveVT)
	p.clock.Advance(p.rt.model.RecvOverhead(m.Wire()))
	p.engine.OnDeliver(m)
	p.metrics.AppDelivers++
	if rec := p.rt.rec; rec != nil {
		ev := trace.Event{
			Op: trace.Deliver, Proc: p.rank, Peer: m.Src,
			MsgDate: m.Date, Phase: m.Phase, MsgPhase: m.Phase,
			Tag: m.Tag, Bytes: m.WireLen, Digest: trace.PayloadDigest(m.Data),
			Replay: p.round != nil, Inc: p.inc,
		}
		if pr, ok := p.engine.(rollback.PhaseReporter); ok {
			ev.Phase = pr.CurrentPhase()
			ev.Date = pr.CurrentDate()
		}
		rec.Record(ev)
	}
}

// checkpointCall is the cooperative checkpoint point. The checkpoint fires
// only when the schedule says so; all members of the engine's checkpoint
// scope reach the same call index and flush their mutual channels with
// in-band markers before capturing (blocking coordinated checkpointing).
func (p *Proc) checkpointCall() error {
	if p.rt.aborted.Load() { // an unscheduled call never reaches the plane; see maybeFail
		return transport.ErrKilled
	}
	p.ckptCallIdx++
	scope := p.engine.CheckpointScope()
	if len(scope) == 0 || !p.rt.ckptScheduled(p.cluster(), p.ckptCallIdx) {
		return nil
	}
	seq := p.epoch + 1
	p.epoch = seq
	peers := 0
	for _, r := range scope {
		if r == p.rank {
			continue
		}
		peers++
		p.clock.Advance(p.rt.model.SendOverhead(markerWire))
		m := p.rt.newMsg()
		*m = transport.Msg{
			Src: p.rank, Dst: r, Kind: transport.Marker,
			Epoch: seq, WireLen: markerWire, SendVT: p.clock.Now(),
		}
		p.post(m)
	}
	// Scopes are symmetric: the peers just sent to are exactly those that
	// send a marker for seq, one each.
	if err := p.waitCtl(func() bool { return p.markers[seq] == peers }); err != nil {
		return err
	}
	delete(p.markers, seq)

	sv := &save{snap: p.capture(seq, scope), done: make(chan struct{})}
	go sv.stage(p.rt.store, p.stateTarget)
	// Stable-storage admission is ordered in virtual time: the write is
	// issued only once no other live process can still act earlier, so the
	// store's shared-bandwidth queue builds up in a deterministic order. A
	// doomed process is granted the turn only for writes issued at or
	// below its death fence; later ones are cancelled with ErrKilled and
	// their staged writes discarded, so the set of completed saves is a
	// pure function of virtual time. The turn waits while the save stages;
	// the process resumes only once the stage is done, so when it finished
	// decides nothing the run does next.
	issueVT := p.clock.Now()
	err := p.turn(issueVT)
	<-sv.done
	if sv.err != nil {
		return sv.err
	}
	if err != nil {
		sv.staged.Discard()
		sv.release()
		return err
	}
	endVT, err := sv.staged.Commit(issueVT)
	sv.release()
	if err != nil {
		return err
	}
	p.rt.ckptDone[p.rank] = append(p.rt.ckptDone[p.rank], savePoint{seq: seq, vt: issueVT})
	p.clock.MergeAtLeast(endVT)
	p.metrics.Checkpoints++
	p.metrics.CkptBytes += sv.cost
	p.ckptsDone++
	round := -1
	if p.round != nil {
		round = p.round.Round
	}
	p.rt.obs.emit(Event{Kind: EvCheckpoint, Rank: p.rank, Round: round, Seq: seq, VT: p.clock.Now()})
	return p.maybeFail()
}

// capture builds the snapshot but for the process image (see save):
// protocol state, and the in-transit messages the checkpoint must hold
// (DESIGN.md note 3).
func (p *Proc) capture(seq int, scope []int) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Rank:        p.rank,
		Seq:         seq,
		TakenVT:     p.clock.Now(),
		CkptCallIdx: p.ckptCallIdx,
		CollSeq:     p.collSeq,
		ModelBytes:  p.stateBytes,
	}
	p.engine.OnCheckpoint(snap)
	for _, m := range p.pending {
		if _, inScope := slices.BinarySearch(scope, m.Src); inScope {
			// Intra-scope traffic: include exactly the pre-snapshot
			// epoch; later-epoch messages belong to the post-checkpoint
			// execution and will be regenerated on rollback.
			if m.Epoch < seq {
				snap.Mailbox = append(snap.Mailbox, m)
			}
		} else {
			// Inter-cluster traffic: the checkpoint holds it; the
			// sender-side log watermark accounts for it.
			snap.Mailbox = append(snap.Mailbox, m)
		}
	}
	for _, m := range snap.Mailbox {
		snap.ModelBytes += checkpoint.MailboxCost(m)
	}
	return snap
}

// save is the part of a checkpoint write that does not depend on the
// virtual time it is issued at: the protocol state's and the process
// image's encodes and the store's stage (copy, encoding, parity, seals).
// It runs on a goroutine of its own while its process waits for the turn,
// in parallel with the run's driver; done closes when it is over.
//
// The encodes read the engine's deferred state and the application state
// uncopied. Both stay frozen until done closes: meanwhile the process only
// waits in FlushAwaitTurn, which has no take callback, so no engine method
// and no application code of the process runs.
type save struct {
	snap   *checkpoint.Snapshot
	staged checkpoint.Staged
	cost   int64
	err    error
	done   chan struct{}

	// releaseProt and releaseApp give the protocol state's and the
	// image's buffers back to their codecs (see release).
	releaseProt, releaseApp func()
}

// stage encodes the protocol state and state, the process image, then
// stages the save to st. The buffers go back to their
// codecs as soon as nothing references them: here when the stage copied
// the snapshot or failed, else once Commit or Discard returns.
func (s *save) stage(st checkpoint.Store, state any) {
	defer close(s.done)
	if s.err = s.encode(state); s.err == nil {
		s.cost = s.snap.CostBytes()
		s.staged, s.err = checkpoint.Stage(st, s.snap)
	}
	if s.err != nil || s.staged.Detached() {
		s.release()
	}
}

// encode writes the deferred protocol state into ProtState, then state
// into AppState, in buffers borrowed from their codecs. The protocol state
// goes first: gob numbers types in the order it meets them, and the
// numbers' widths are part of every snapshot's length.
func (s *save) encode(state any) error {
	s.releaseProt, s.releaseApp = noRelease, noRelease
	release, err := s.snap.BorrowProtState()
	if err != nil {
		return err
	}
	s.releaseProt = release
	if state == nil {
		return nil
	}
	b, release, err := checkpoint.BorrowState(state)
	if err != nil {
		return err
	}
	s.snap.AppState, s.releaseApp = b, release
	return nil
}

// release gives both buffers back; a second call does nothing.
func (s *save) release() {
	s.releaseProt()
	s.releaseApp()
	s.releaseProt, s.releaseApp = noRelease, noRelease
}

func noRelease() {}

func (p *Proc) cluster() int { return p.rt.topo.ClusterOf[p.rank] }

// --- rollback.Proc interface ---

// Topo implements rollback.Proc.
func (p *Proc) Topo() *rollback.Topology { return p.rt.topo }

// Clock implements rollback.Proc.
func (p *Proc) Clock() *vtime.Clock { return p.clock }

// Model implements rollback.Proc.
func (p *Proc) Model() netmodel.Model { return p.rt.model }

// Metrics implements rollback.Proc.
func (p *Proc) Metrics() *rollback.Metrics { return &p.metrics }

// SendCtl implements rollback.Proc.
func (p *Proc) SendCtl(dst int, body any, wireBytes int) {
	p.clock.Advance(p.rt.model.SendOverhead(wireBytes))
	p.post(&transport.Msg{
		Src: p.rank, Dst: dst, Kind: transport.Ctl,
		CtlBody: body, WireLen: wireBytes,
		SendVT: p.clock.Now(), Epoch: p.epoch,
	})
	p.metrics.CtlMsgs++
}

// SendAppRaw implements rollback.Proc: log replay of a fully formed
// application message.
func (p *Proc) SendAppRaw(m *transport.Msg) {
	p.clock.Advance(p.rt.model.SendOverhead(m.Wire()))
	m.SendVT = p.clock.Now()
	m.Epoch = p.epoch
	p.post(m)
}

// WaitCtl implements rollback.Proc.
func (p *Proc) WaitCtl(pred func() bool) error { return p.waitCtl(pred) }

// RecoveryID implements rollback.Proc.
func (p *Proc) RecoveryID() int { return p.rt.cfg.NP }

// Held implements rollback.Proc.
func (p *Proc) Held() []*transport.Msg { return p.pending }

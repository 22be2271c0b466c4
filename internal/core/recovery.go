package core

import (
	"slices"

	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/transport"
)

// roundState is the engine-side state of one recovery round.
type roundState struct {
	round      int
	selfRolled bool
	// startSeen marks that the round membership is known (RoundStart
	// received, or OnRestore for a rolled-back process).
	startSeen bool
	// notesLeft counts the RollbackNotes still to process before
	// reporting: every rolled-back rank outside this process's cluster
	// sends one per round. A note can arrive before the membership is
	// known, so the count goes negative until expectNotes adds the
	// round's share.
	notesLeft  int
	reportSent bool
	// gated blocks this process's first subsequent send until released.
	gated    bool
	released bool
	// orphanPhases collects the phase of each orphan message this process
	// holds (one entry per message).
	orphanPhases []int
	// resent is the ResentLogs list: logged entries to re-send, released
	// by phase.
	resent []logEntry
	// orphanDate is Algorithm 2's OrphanDate table for a rolled-back
	// process: the suppression watermark per outside rank, each of which
	// sends one (by LastDate, or in its own RollbackNote). watermarksLeft
	// counts those still to come.
	orphanDate     map[int]int64
	watermarksLeft int
}

// watermark records one outside rank's suppression watermark. Dates
// start at 1, so a zero watermark suppresses nothing and takes no entry.
func (rs *roundState) watermark(src int, wm int64) {
	if wm > 0 {
		rs.orphanDate[src] = wm
	}
	rs.watermarksLeft--
}

func (e *engine) roundState(round int) *roundState {
	rs := e.rounds[round]
	if rs == nil {
		rs = &roundState{round: round}
		e.rounds[round] = rs
		delete(e.rounds, round-4) // prune long-gone rounds
	}
	if e.active == nil || e.active.round < round {
		e.active = rs
	}
	return rs
}

// expectNotes records that the round's membership is known: one
// RollbackNote is due from every rank in rolledBack outside this
// process's cluster.
func (e *engine) expectNotes(rs *roundState, rolledBack []int) {
	rs.startSeen = true
	for _, r := range rolledBack {
		if e.interCluster(r) {
			rs.notesLeft++
		}
	}
}

// OnRestore implements Algorithm 2: rehydrate the protocol state from the
// checkpoint, then notify every process outside the cluster.
func (e *engine) OnRestore(s *checkpoint.Snapshot, round *rollback.RoundInfo) {
	if len(s.ProtState) > 0 {
		st, err := decodeEngineState(s.ProtState)
		if err != nil {
			panic(err)
		}
		e.date = st.Date
		e.phase = st.Phase
		e.live.restore(st.RPP, st.Logs)
		e.gcSafeValid = st.GCSafeValid
		e.gcSafeDate = st.GCSafeDate
		e.gcSafeDeliv = st.GCSafeDeliv
		e.gcPendingValid = st.GCPendingValid
		e.gcPendingDate = st.GCPendingDate
		e.gcPendingDeliv = st.GCPendingDeliv
	}
	e.myInc = round.AllIncs[e.rank]
	e.incs.reset(round.Round, round.AllIncs)

	rs := e.roundState(round.Round)
	rs.selfRolled = true
	rs.gated = true
	e.expectNotes(rs, round.RolledBack)
	// Broadcast the rollback notification (Algorithm 2 line 6) to every
	// rank outside the cluster, with the per-channel held watermark
	// (DESIGN.md deviation 1).
	held := make(map[int]int64)
	for _, m := range e.px.Held() {
		held[m.Src] = max(held[m.Src], m.Date)
	}
	rs.watermarksLeft = e.topo.NP - len(e.topo.Members[e.cluster])
	rs.orphanDate = make(map[int]int64)
	for dst := range e.topo.NP {
		if !e.interCluster(dst) {
			continue
		}
		wm := held[dst]
		if p := e.live.find(dst); p != nil {
			wm = max(wm, p.maxDate)
		}
		e.px.SendCtl(dst, RollbackNote{
			Round:       round.Round,
			RestartDate: e.date,
			HeldFromYou: wm,
			NewInc:      e.myInc,
		}, wireRollback)
	}
	e.maybeReport(rs)
}

// OnCtl implements rollback.Engine: the recovery control plane.
func (e *engine) OnCtl(m *transport.Msg) {
	switch b := m.CtlBody.(type) {
	case RoundStart:
		rs := e.roundState(b.Round)
		e.incs.adopt(b.Round, b.AllIncs)
		if !rs.startSeen {
			rs.gated = true // Algorithm 3 line 18
			e.expectNotes(rs, b.RolledBack)
		}
		e.maybeReport(rs)

	case RollbackNote:
		e.onRollbackNote(m.Src, b)

	case LastDate:
		// Only a rolled-back process asks for watermarks.
		if rs := e.roundState(b.Round); rs.selfRolled {
			rs.watermark(m.Src, b.Held)
		}

	case NotifySendMsg:
		rs := e.roundState(b.Round)
		rs.released = true

	case NotifySendLog:
		e.resendLogged(b.Round, b.Phase)

	case GCAck:
		mx := e.px.Metrics()
		mx.GCReclaimed += e.live.pruneUpTo(m.Src, b.DeliveredFromYou)
		if p := e.live.find(m.Src); p != nil {
			p.rpp = p.rppAbove(b.CkptDate)
		}
	}
}

// onRollbackNote handles one restarted process's notification: answer with
// the held watermark, compute the logged messages to re-send and the orphan
// messages held (Algorithm 3 lines 6-17).
func (e *engine) onRollbackNote(q int, b RollbackNote) {
	rs := e.roundState(b.Round)
	e.incs.raise(q, b.NewInc)
	if !rs.selfRolled {
		rs.gated = true
	}
	rs.notesLeft--

	// Orphan messages from q: delivered or buffered with a date later
	// than q's restart point (Algorithm 3 lines 13-14).
	// Date order makes the phases land in rs.orphanPhases — and from
	// there in the wire-visible Report — in a reproducible order.
	p := e.live.find(q)
	if p != nil {
		for _, r := range p.rppAbove(b.RestartDate) {
			rs.orphanPhases = append(rs.orphanPhases, r.phase)
		}
	}
	var held int64
	for _, m := range e.px.Held() {
		if m.Src != q {
			continue
		}
		held = max(held, m.Date)
		if m.Date > b.RestartDate {
			rs.orphanPhases = append(rs.orphanPhases, m.Phase)
		}
	}

	// Watermark for the restarted process's suppression decisions. A
	// rolled-back process's own note already carried its watermark, so
	// only survivors answer with LastDate (Algorithm 3 line 9).
	if rs.selfRolled {
		rs.watermark(q, b.HeldFromYou)
	} else {
		if p != nil {
			held = max(held, p.maxDate)
		}
		e.px.SendCtl(q, LastDate{Round: b.Round, Held: held}, wireLastDate)
	}

	// Logged messages to re-send: entries above what the restarted
	// process still holds (Algorithm 3 lines 10-12).
	rs.resent = e.live.above(rs.resent, q, b.HeldFromYou)
	e.maybeReport(rs)
}

// maybeReport sends the per-round report once the membership is known and
// every expected rollback notification has been processed.
func (e *engine) maybeReport(rs *roundState) {
	if rs.reportSent || !rs.startSeen || rs.notesLeft > 0 {
		return
	}
	logPhases := make([]int, len(rs.resent))
	for i, le := range rs.resent {
		logPhases[i] = le.Phase
	}
	slices.Sort(logPhases)
	rep := Report{
		Round:        rs.round,
		OwnPhase:     e.phase,
		LogPhases:    slices.Compact(logPhases),
		OrphanPhases: append([]int(nil), rs.orphanPhases...),
	}
	e.px.SendCtl(e.px.RecoveryID(), rep, wireReport(&rep))
	rs.reportSent = true
}

// resendLogged re-sends the pending logged entries with phase <= maxPhase
// (Algorithm 3 lines 22-24).
func (e *engine) resendLogged(round, maxPhase int) {
	rs := e.roundState(round)
	kept := rs.resent[:0]
	for _, le := range rs.resent {
		if le.Phase > maxPhase {
			kept = append(kept, le)
			continue
		}
		m := &transport.Msg{
			Src: e.rank, Dst: le.Dst, Kind: transport.App,
			Tag: le.Tag, Date: le.Date, Phase: le.Phase,
			WireLen: le.WireLen, Data: le.Data,
			IncSeen: e.incs.of(le.Dst),
		}
		e.px.SendAppRaw(m)
		e.px.Metrics().ResentLogged++
	}
	rs.resent = kept
}

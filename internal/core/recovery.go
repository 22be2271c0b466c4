package core

import (
	"sort"

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
	// notesNeeded lists the rolled-back ranks outside this process's
	// cluster whose RollbackNote must be processed before reporting.
	notesNeeded map[int]bool
	notesDone   map[int]bool
	reportSent  bool
	// gated blocks this process's first subsequent send until released.
	gated    bool
	released bool
	// orphanPhases collects the phase of each orphan message this process
	// holds (one entry per message).
	orphanPhases []int
	// resent is the ResentLogs list: logged entries to re-send, released
	// by phase.
	resent []logEntry
	// needWatermark / orphanDate implement Algorithm 2's OrphanDate table
	// for a rolled-back process: suppression watermarks per outside rank.
	needWatermark map[int]bool
	orphanDate    map[int]int64
}

func (e *engine) roundState(round int) *roundState {
	rs := e.rounds[round]
	if rs == nil {
		rs = &roundState{
			round:         round,
			notesDone:     make(map[int]bool),
			needWatermark: make(map[int]bool),
			orphanDate:    make(map[int]int64),
		}
		e.rounds[round] = rs
		delete(e.rounds, round-4) // prune long-gone rounds
	}
	if e.active == nil || e.active.round < round {
		e.active = rs
	}
	return rs
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
		e.rpp = st.RPP
		if e.rpp == nil {
			e.rpp = make(map[int]*rppChannel)
		}
		e.logs = st.Logs
		if e.logs == nil {
			e.logs = newLogStore()
		}
		if e.logs.PerDst == nil {
			e.logs.PerDst = make(map[int][]logEntry)
		}
		e.gcSafeValid = st.GCSafeValid
		e.gcSafeDate = st.GCSafeDate
		e.gcSafeDeliv = st.GCSafeDeliv
		e.gcPendingValid = st.GCPendingValid
		e.gcPendingDate = st.GCPendingDate
		e.gcPendingDeliv = st.GCPendingDeliv
		e.gcAcked = make(map[int]bool)
	}
	e.myInc = round.AllIncs[e.rank]
	e.incs.reset(round.Round, round.AllIncs)

	rs := e.roundState(round.Round)
	rs.selfRolled = true
	rs.gated = true
	rs.startSeen = true
	rs.notesNeeded = make(map[int]bool)
	for _, r := range round.RolledBack {
		if e.topo.ClusterOf[r] != e.cluster {
			rs.notesNeeded[r] = true
		}
	}
	// Broadcast the rollback notification (Algorithm 2 line 6) to every
	// rank outside the cluster, with the per-channel held watermark
	// (DESIGN.md deviation 1).
	for dst := range e.topo.NP {
		if !e.interCluster(dst) {
			continue
		}
		rs.needWatermark[dst] = true
		wm := e.px.HeldFrom(dst)
		if ch := e.rpp[dst]; ch != nil && ch.MaxDate > wm {
			wm = ch.MaxDate
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
			rs.startSeen = true
			if !rs.selfRolled {
				rs.gated = true // Algorithm 3 line 18
				rs.notesNeeded = make(map[int]bool)
				for _, r := range b.RolledBack {
					if e.topo.ClusterOf[r] != e.cluster {
						rs.notesNeeded[r] = true
					}
				}
			}
		}
		e.maybeReport(rs)

	case RollbackNote:
		e.onRollbackNote(m.Src, b)

	case LastDate:
		rs := e.roundState(b.Round)
		rs.orphanDate[m.Src] = b.Held
		delete(rs.needWatermark, m.Src)

	case NotifySendMsg:
		rs := e.roundState(b.Round)
		rs.released = true

	case NotifySendLog:
		e.resendLogged(b.Round, b.Phase)

	case GCAck:
		mx := e.px.Metrics()
		mx.GCReclaimed += e.logs.pruneUpTo(m.Src, b.DeliveredFromYou)
		if ch := e.rpp[m.Src]; ch != nil {
			ch.pruneUpTo(b.CkptDate)
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
	if rs.notesDone[q] {
		return
	}
	rs.notesDone[q] = true

	// Watermark for the restarted process's suppression decisions. A
	// rolled-back process's own note already carried its watermark, so
	// only survivors answer with LastDate (Algorithm 3 line 9).
	if rs.selfRolled {
		rs.orphanDate[q] = b.HeldFromYou
		delete(rs.needWatermark, q)
	} else {
		held := e.px.HeldFrom(q)
		if ch := e.rpp[q]; ch != nil && ch.MaxDate > held {
			held = ch.MaxDate
		}
		e.px.SendCtl(q, LastDate{Round: b.Round, Held: held}, wireLastDate)
	}

	// Logged messages to re-send: entries above what the restarted
	// process still holds (Algorithm 3 lines 10-12).
	rs.resent = append(rs.resent, e.logs.above(q, b.HeldFromYou)...)

	// Orphan messages from q: delivered or buffered with a date later
	// than q's restart point (Algorithm 3 lines 13-14).
	// Sorted dates so the phases land in rs.orphanPhases — and from there
	// in the wire-visible Report — in a reproducible order.
	if ch := e.rpp[q]; ch != nil {
		for _, date := range sortedKeys(ch.Phases) {
			if date > b.RestartDate {
				rs.orphanPhases = append(rs.orphanPhases, ch.Phases[date])
			}
		}
	}
	for _, h := range e.px.HeldEntries(q) {
		if h.Date > b.RestartDate {
			rs.orphanPhases = append(rs.orphanPhases, h.Phase)
		}
	}
	e.maybeReport(rs)
}

// maybeReport sends the per-round report once the membership is known and
// every expected rollback notification has been processed.
func (e *engine) maybeReport(rs *roundState) {
	if rs.reportSent || !rs.startSeen {
		return
	}
	for r := range rs.notesNeeded {
		if !rs.notesDone[r] {
			return
		}
	}
	phases := make(map[int]bool)
	for _, le := range rs.resent {
		phases[le.Phase] = true
	}
	logPhases := make([]int, 0, len(phases))
	for ph := range phases {
		logPhases = append(logPhases, ph)
	}
	sort.Ints(logPhases)
	rep := Report{
		Round:        rs.round,
		OwnPhase:     e.phase,
		LogPhases:    logPhases,
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

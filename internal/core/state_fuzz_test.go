package core

import (
	"reflect"
	"slices"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/transport"
)

// refState is the map-based model of the state liveState keeps: the
// checkpoint form's RPP and Logs, updated one map operation per message.
type refState struct {
	rpp   map[int]*rppChannel
	logs  map[int][]logEntry
	bytes int64
}

func newRefState() *refState {
	return &refState{rpp: map[int]*rppChannel{}, logs: map[int][]logEntry{}}
}

func (r *refState) add(le logEntry) {
	r.logs[le.Dst] = append(r.logs[le.Dst], le)
	r.bytes += int64(le.WireLen)
}

func (r *refState) above(dst int, w int64) []logEntry {
	var out []logEntry
	for _, le := range r.logs[dst] {
		if le.Date > w {
			out = append(out, le)
		}
	}
	return out
}

func (r *refState) pruneUpTo(dst int, w int64) int64 {
	var reclaimed int64
	for _, le := range r.logs[dst] {
		if le.Date <= w {
			reclaimed += int64(le.WireLen)
		}
	}
	if keep := r.above(dst, w); len(keep) == 0 {
		delete(r.logs, dst)
	} else {
		r.logs[dst] = keep
	}
	r.bytes -= reclaimed
	return reclaimed
}

func (r *refState) record(src int, date int64, phase int) {
	ch := r.rpp[src]
	if ch == nil {
		ch = &rppChannel{Phases: map[int64]int{}}
		r.rpp[src] = ch
	}
	ch.MaxDate = max(ch.MaxDate, date)
	ch.Phases[date] = phase
}

func (r *refState) pruneRPP(src int, d int64) {
	if ch := r.rpp[src]; ch != nil {
		for date := range ch.Phases {
			if date <= d {
				delete(ch.Phases, date)
			}
		}
	}
}

// orphans lists the phases src's deliveries dated after d carried, in date
// order.
func (r *refState) orphans(src int, d int64) []int {
	var out []int
	if ch := r.rpp[src]; ch != nil {
		for _, date := range sortedKeys(ch.Phases) {
			if date > d {
				out = append(out, ch.Phases[date])
			}
		}
	}
	return out
}

func (r *refState) maxDate(src int) int64 {
	if ch := r.rpp[src]; ch != nil {
		return ch.MaxDate
	}
	return 0
}

func (r *refState) logStore() *logStore { return &logStore{PerDst: r.logs, Bytes: r.bytes} }

// FuzzProtocolState drives the engine of rank 0 among six singleton
// clusters, the mlog shape, through inter-cluster sends to several
// destinations, deliveries from several senders with out-of-order and
// repeated dates, GCAck prunes with rising and falling watermarks,
// rollback notifications, and checkpoint → OnRestore round trips, and
// holds every step to refState: the logged bytes, the bytes a GCAck
// reclaims, the entries a notification resends, the orphan phases and
// held watermark it reports, and the decoded checkpoint form.
func FuzzProtocolState(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 0, 2, 20, 0, 1, 1, 5, 3, 1, 1, 3, 2, 2, 1, 2, 4, 4, 0, 0, 0, 3, 1, 0, 9, 2, 1, 9, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 1, 3, 0, 1, 0, 4, 1, 1, 0, 4, 2, 1, 0, 2, 3, 4, 0, 0, 0, 2, 0, 2, 1, 3, 0, 3, 2, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const np = 6
		e, px := newTestEngine(0, []int{0, 1, 2, 3, 4, 5})
		ref := newRefState()
		for seq := 1; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0]%5, ops[1], ops[2], ops[3]
			q := 1 + int(a)%(np-1)
			switch op {
			case 0: // a logged send
				m := appMsg(0, q, int(c), 1+int(b))
				m.Data = []byte{b}
				if _, err := e.PreSend(m); err != nil {
					t.Fatal(err)
				}
				ref.add(logEntry{Dst: q, Date: m.Date, Phase: m.Phase, Tag: m.Tag, WireLen: m.WireLen, Data: m.Data})
			case 1: // a delivery; dates repeat and arrive out of order
				m := appMsg(q, 0, 0, 1)
				m.Date, m.Phase = 1+int64(b%32), int(c%6)
				e.OnDeliver(m)
				ref.record(q, m.Date, m.Phase)
			case 2: // a GCAck
				wm, ckptDate := int64(b)%(e.date+2), int64(c%40)
				before := px.metrics.GCReclaimed
				e.OnCtl(&transport.Msg{Src: q, Kind: transport.Ctl, CtlBody: GCAck{CkptDate: ckptDate, DeliveredFromYou: wm}})
				if got, want := px.metrics.GCReclaimed-before, ref.pruneUpTo(q, wm); got != want {
					t.Fatalf("GCAck from %d to %d reclaimed %d, want %d", q, wm, got, want)
				}
				ref.pruneRPP(q, ckptDate)
			case 3: // a rollback notification from q, which survives it
				restart, held := int64(c%40), int64(b)%(e.date+2)
				px.sentCtl = nil
				e.OnCtl(&transport.Msg{Src: q, Kind: transport.Ctl, CtlBody: RollbackNote{Round: 1, RestartDate: restart, HeldFromYou: held}})
				rs := e.rounds[1]
				if want := ref.orphans(q, restart); !slices.Equal(rs.orphanPhases, want) {
					t.Fatalf("orphans of %d after %d: %v, want %v", q, restart, rs.orphanPhases, want)
				}
				if want := ref.above(q, held); !slices.EqualFunc(rs.resent, want, sameEntry) {
					t.Fatalf("resent to %d above %d: %v, want %v", q, held, rs.resent, want)
				}
				if ld := px.sentCtl[0].body.(LastDate); ld.Held != ref.maxDate(q) {
					t.Fatalf("LastDate to %d holds %d, want %d", q, ld.Held, ref.maxDate(q))
				}
				e.active = nil // the round's gating is not under test
				clear(e.rounds)
			case 4: // a checkpoint, restored at once
				snap := &checkpoint.Snapshot{Rank: 0, Seq: seq}
				seq++
				e.OnCheckpoint(snap)
				release, err := snap.BorrowProtState()
				if err != nil {
					t.Fatal(err)
				}
				saved := &checkpoint.Snapshot{Rank: 0, ProtState: slices.Clone(snap.ProtState)}
				release()
				st, err := decodeEngineState(saved.ProtState)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st.RPP, ref.rpp) || !reflect.DeepEqual(st.Logs, ref.logStore()) {
					t.Fatalf("saved RPP %v and log %+v, want %v and %+v", st.RPP, st.Logs, ref.rpp, ref.logStore())
				}
				e.OnRestore(saved, &rollback.RoundInfo{Round: seq, RolledBack: []int{0}, AllIncs: make([]int32, np)})
				e.active = nil
				clear(e.rounds)
			}
			if e.live.bytes != ref.bytes {
				t.Fatalf("log holds %d bytes, want %d", e.live.bytes, ref.bytes)
			}
		}
	})
}

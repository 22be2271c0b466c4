package core

import (
	"cmp"
	"fmt"
	"slices"

	"hydee/internal/checkpoint"
	"hydee/internal/idtab"
)

// rppChannel is one entry of the Received-Per-Phase table (§III-C): for the
// incoming channel from one process it records the date of the last
// delivered message and the phase of every delivered message, keyed by the
// sender's date.
type rppChannel struct {
	MaxDate int64
	Phases  map[int64]int
}

// logEntry is one sender-based log record: (destination, date, phase, msg)
// as in Algorithm 1 line 8, plus the tag and modeled size needed to replay
// the message identically.
type logEntry struct {
	Dst     int
	Date    int64
	Phase   int
	Tag     int
	WireLen int
	Data    []byte
}

// logStore is the sender-based message log, each destination's entries in
// ascending date order.
type logStore struct {
	PerDst map[int][]logEntry
	// Bytes is the modeled occupancy.
	Bytes int64
}

// engineState is the gob-encoded protocol state included in checkpoints
// (Algorithm 1 line 21: ImagePs aside, this is RPP, Logs, Phase, Date, plus
// the garbage-collection bookkeeping).
type engineState struct {
	Date  int64
	Phase int
	RPP   map[int]*rppChannel
	Logs  *logStore
	// Garbage-collection watermarks (§III-E): "safe" is the previous
	// checkpoint's view (usable in acknowledgments), "pending" the one
	// captured by this checkpoint (promoted once the next completes).
	GCSafeValid    bool
	GCSafeDate     int64
	GCSafeDeliv    map[int]int64
	GCPendingValid bool
	GCPendingDate  int64
	GCPendingDeliv map[int]int64
}

func decodeEngineState(b []byte) (*engineState, error) {
	var s engineState
	if err := checkpoint.DecodeState(b, &s); err != nil {
		return nil, fmt.Errorf("core: decode protocol state: %w", err)
	}
	return &s, nil
}

// liveState is the live form of RPP and Logs, which Algorithm 1 updates on
// every inter-cluster message without a map operation: a record per
// inter-cluster peer and the modeled bytes of the send log. The save
// converts it to engineState on its own goroutine; OnRestore converts back.
type liveState struct {
	peers idtab.Table[peer]
	bytes int64
}

// peer is the live state of one inter-cluster rank: the entries logged to
// it and its RPP channel, each in ascending date order (dates rise at the
// sender, so logging appends; dates start at 1, so maxDate > 0 marks a
// channel the checkpoint's RPP holds), and whether its first delivery
// since the last checkpoint was acknowledged (§III-E).
type peer struct {
	log     []logEntry
	rpp     []rppRec
	maxDate int64
	acked   bool
}

type rppRec struct {
	date  int64
	phase int
}

func (s *liveState) peer(rank int) *peer { return s.peers.Get(int32(rank)) }
func (s *liveState) find(rank int) *peer { return s.peers.Find(int32(rank)) }

func (s *liveState) add(le logEntry) {
	p := s.peer(le.Dst)
	p.log = append(p.log, le)
	s.bytes += int64(le.WireLen)
}

// above appends dst's entries dated after the watermark to out.
func (s *liveState) above(out []logEntry, dst int, watermark int64) []logEntry {
	if p := s.find(dst); p != nil {
		i, _ := slices.BinarySearchFunc(p.log, watermark+1, func(le logEntry, d int64) int { return cmp.Compare(le.Date, d) })
		out = append(out, p.log[i:]...)
	}
	return out
}

// pruneUpTo drops dst's entries dated up to the watermark and their
// payloads, returning the modeled bytes reclaimed. It moves the entries
// left only when they are no more than those dropped, so its cost is
// that of the entries it reclaims; else the next append that outgrows
// the slice leaves the dropped ones behind.
func (s *liveState) pruneUpTo(dst int, watermark int64) int64 {
	p := s.find(dst)
	if p == nil {
		return 0
	}
	var reclaimed int64
	n := 0
	for ; n < len(p.log) && p.log[n].Date <= watermark; n++ {
		reclaimed += int64(p.log[n].WireLen)
	}
	if 2*n >= len(p.log) {
		p.log = slices.Delete(p.log, 0, n)
	} else {
		clear(p.log[:n])
		p.log = p.log[n:]
	}
	s.bytes -= reclaimed
	return reclaimed
}

// record notes a delivery with the map semantics of rppChannel.Phases: an
// in-order date appends, an earlier one inserts, a repeated one overwrites.
func (p *peer) record(date int64, phase int) {
	p.maxDate = max(p.maxDate, date)
	if n := len(p.rpp); n == 0 || p.rpp[n-1].date < date {
		p.rpp = append(p.rpp, rppRec{date, phase})
	} else if i, found := slices.BinarySearchFunc(p.rpp, date, cmpDate); found {
		p.rpp[i].phase = phase
	} else {
		p.rpp = slices.Insert(p.rpp, i, rppRec{date, phase})
	}
}

// rppAbove returns the RPP records dated after d.
func (p *peer) rppAbove(d int64) []rppRec {
	i, _ := slices.BinarySearchFunc(p.rpp, d+1, cmpDate)
	return p.rpp[i:]
}

func cmpDate(r rppRec, d int64) int { return cmp.Compare(r.date, d) }

// saved converts the live form to the checkpoint form. Where the live form
// holds nothing the maps are empty, not nil: gob sends an empty map, and
// without ModelBytes a checkpoint's cost is its encoded length.
func (s *liveState) saved() (map[int]*rppChannel, *logStore) {
	rpp := make(map[int]*rppChannel)
	logs := &logStore{PerDst: make(map[int][]logEntry), Bytes: s.bytes}
	for i := range s.peers.Len() {
		id, p := s.peers.At(i)
		if p.maxDate > 0 {
			ch := &rppChannel{MaxDate: p.maxDate, Phases: make(map[int64]int, len(p.rpp))}
			for _, r := range p.rpp {
				ch.Phases[r.date] = r.phase
			}
			rpp[int(id)] = ch
		}
		if len(p.log) > 0 {
			logs.PerDst[int(id)] = p.log
		}
	}
	return rpp, logs
}

// restore replaces the live form with a checkpoint's RPP and Logs.
func (s *liveState) restore(rpp map[int]*rppChannel, logs *logStore) {
	*s = liveState{}
	for _, src := range sortedKeys(rpp) {
		p, ch := s.peer(src), rpp[src]
		p.maxDate = ch.MaxDate
		for _, date := range sortedKeys(ch.Phases) {
			p.rpp = append(p.rpp, rppRec{date, ch.Phases[date]})
		}
	}
	if logs != nil {
		for _, dst := range sortedKeys(logs.PerDst) {
			s.peer(dst).log = logs.PerDst[dst]
		}
		s.bytes = logs.Bytes
	}
}

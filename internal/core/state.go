package core

import (
	"fmt"

	"hydee/internal/checkpoint"
)

// rppChannel is one entry of the Received-Per-Phase table (§III-C): for the
// incoming channel from one process it records the date of the last
// delivered message and the phase of every delivered message, keyed by the
// sender's date.
type rppChannel struct {
	MaxDate int64
	Phases  map[int64]int
}

func newRPPChannel() *rppChannel {
	return &rppChannel{Phases: make(map[int64]int)}
}

func (ch *rppChannel) record(date int64, phase int) {
	if date > ch.MaxDate {
		ch.MaxDate = date
	}
	ch.Phases[date] = phase
}

// pruneUpTo removes entries with date <= d (garbage collection: the sender
// can never roll back before d again).
func (ch *rppChannel) pruneUpTo(d int64) {
	for date := range ch.Phases {
		if date <= d {
			delete(ch.Phases, date)
		}
	}
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

// logStore is the in-memory sender-based message log. Entries per
// destination are naturally ordered by ascending date (dates increase
// monotonically at the sender).
type logStore struct {
	PerDst map[int][]logEntry
	// Bytes is the modeled occupancy.
	Bytes int64
}

func newLogStore() *logStore {
	return &logStore{PerDst: make(map[int][]logEntry)}
}

func (ls *logStore) add(e logEntry) {
	ls.PerDst[e.Dst] = append(ls.PerDst[e.Dst], e)
	ls.Bytes += int64(e.WireLen)
}

// above returns the entries to dst with date strictly above the watermark.
func (ls *logStore) above(dst int, watermark int64) []logEntry {
	entries := ls.PerDst[dst]
	// Binary search over the date-ordered slice.
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].Date <= watermark {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return entries[lo:]
}

// pruneUpTo drops entries to dst with date <= watermark, returning the
// modeled bytes reclaimed.
func (ls *logStore) pruneUpTo(dst int, watermark int64) int64 {
	entries := ls.PerDst[dst]
	keep := ls.above(dst, watermark)
	var reclaimed int64
	for _, e := range entries[:len(entries)-len(keep)] {
		reclaimed += int64(e.WireLen)
	}
	if len(keep) == 0 {
		delete(ls.PerDst, dst)
	} else {
		ls.PerDst[dst] = append([]logEntry(nil), keep...)
	}
	ls.Bytes -= reclaimed
	return reclaimed
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

// encodeEngineState gob-encodes a checkpoint's protocol state through the
// checkpoint package's shared codec: the bytes a fresh gob encoder writes.
func encodeEngineState(s *engineState) ([]byte, error) { return checkpoint.EncodeState(s) }

func decodeEngineState(b []byte) (*engineState, error) {
	var s engineState
	if err := checkpoint.DecodeState(b, &s); err != nil {
		return nil, fmt.Errorf("core: decode protocol state: %w", err)
	}
	return &s, nil
}

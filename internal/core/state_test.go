package core

// The protocol-state codec against gob itself: a checkpoint's save
// encodes engineState through the checkpoint package's codec, which writes
// the type descriptors from a cache and the value through a pooled, primed
// encoder, and what it writes must be what a gob encoder of its own would
// write.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/transport"
)

// freshEncoding is s encoded by a gob encoder of its own.
func freshEncoding(tb testing.TB, s *engineState) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// randomEngineState draws a protocol state. Unless wide, every map holds at
// most one entry: gob writes a map in Go's randomised iteration order, so
// only such a state has a single encoding to compare bytes against.
func randomEngineState(rng *rand.Rand, wide bool) *engineState {
	size := func() int {
		if wide {
			return rng.Intn(6)
		}
		return rng.Intn(2)
	}
	deliv := func() map[int]int64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		m := map[int]int64{}
		for i := size(); i > 0; i-- {
			m[rng.Intn(64)] = rng.Int63n(1 << 40)
		}
		return m
	}
	s := &engineState{
		Date:           rng.Int63n(1 << 30),
		Phase:          rng.Intn(20),
		GCSafeValid:    rng.Intn(2) == 0,
		GCSafeDate:     rng.Int63n(1 << 30),
		GCSafeDeliv:    deliv(),
		GCPendingValid: rng.Intn(2) == 0,
		GCPendingDate:  rng.Int63n(1 << 30),
		GCPendingDeliv: deliv(),
	}
	if rng.Intn(4) != 0 {
		s.RPP = map[int]*rppChannel{}
		for i := size(); i > 0; i-- {
			ch := newRPPChannel()
			for j := size(); j > 0; j-- {
				ch.record(rng.Int63n(1<<20)+1, rng.Intn(9))
			}
			s.RPP[rng.Intn(64)] = ch
		}
	}
	if rng.Intn(4) != 0 {
		s.Logs = newLogStore()
		for i := size(); i > 0; i-- {
			dst, date := rng.Intn(64), int64(0)
			for j := 1 + size(); j > 0; j-- {
				date += rng.Int63n(5) + 1
				data := make([]byte, rng.Intn(40))
				rng.Read(data)
				s.Logs.add(logEntry{Dst: dst, Date: date, Phase: rng.Intn(9), Tag: rng.Intn(100), WireLen: rng.Intn(1 << 16), Data: data})
			}
		}
	}
	return s
}

// TestEngineStateEncodingIsGob holds the save's encode of a deferred
// engineState to a fresh gob encoder: byte for byte on states with a single encoding, and through
// decodeEngineState on any state, from several goroutines sharing the pool.
func TestEngineStateEncodingIsGob(t *testing.T) {
	decode := func(b []byte) *engineState {
		t.Helper()
		s, err := decodeEngineState(b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(s *engineState, wide bool) {
		t.Helper()
		snap := &checkpoint.Snapshot{}
		snap.DeferProtState(s)
		release, err := snap.BorrowProtState()
		if err != nil {
			t.Error(err)
			return
		}
		defer release()
		got := snap.ProtState
		want := freshEncoding(t, s)
		if !wide && !bytes.Equal(got, want) {
			t.Errorf("encoding of %+v differs from a fresh encoder's:\n got %x\nwant %x", s, got, want)
		}
		if len(got) != len(want) || !reflect.DeepEqual(decode(got), decode(want)) {
			t.Errorf("encoding of %+v does not decode to what a fresh encoder's does", s)
		}
	}
	check(&engineState{}, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				check(randomEngineState(rng, i%2 == 1), i%2 == 1)
			}
		}(g)
	}
	wg.Wait()
}

// benchEngine is an engine of rank 0 in the first of np/32 32-rank
// clusters that has exchanged perRank messages with every rank of the
// second: a full RPP table and sender log, the state a checkpoint captures.
func benchEngine(b *testing.B, np, perRank int) *engine {
	assign := make([]int, np)
	for r := range assign {
		assign[r] = r / 32
	}
	e, _ := newTestEngine(0, assign)
	payload := make([]byte, 32)
	for i := 1; i <= perRank; i++ {
		for peer := 32; peer < 64; peer++ {
			if _, err := e.PreSend(&transport.Msg{Src: 0, Dst: peer, Kind: transport.App, WireLen: 256, Data: payload}); err != nil {
				b.Fatal(err)
			}
			e.OnDeliver(&transport.Msg{Src: peer, Dst: 0, Kind: transport.App, Date: int64(i), Phase: 1, WireLen: 256})
		}
	}
	return e
}

// BenchmarkEnginePreSend measures Algorithm 1's send path (date, phase,
// logging decision, piggyback strategy) for an inter-cluster message, which
// is logged.
func BenchmarkEnginePreSend(b *testing.B) {
	e, _ := newTestEngine(0, []int{0, 1})
	payload := make([]byte, 128)
	b.ReportAllocs()
	for b.Loop() {
		m := &transport.Msg{Src: 0, Dst: 1, Kind: transport.App, WireLen: 128, Data: payload}
		if _, err := e.PreSend(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOnCheckpoint measures the protocol's share of a
// checkpoint, for an engine holding a few messages per peer of one remote
// 32-rank cluster, at np = 64, 1024 and 16384, in its two halves: capture
// is OnCheckpoint on the rank's task (garbage-collection watermarks, the
// state handed to the save), encode is the save's encode of that state on
// its own goroutine, its buffer released as a staged save releases it.
// Neither may grow with np.
func BenchmarkEngineOnCheckpoint(b *testing.B) {
	for _, np := range []int{64, 1024, 16384} {
		e := benchEngine(b, np, 4)
		b.Run(fmt.Sprintf("capture/np%d", np), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				e.OnCheckpoint(&checkpoint.Snapshot{Rank: 0, Seq: 1})
			}
		})
		b.Run(fmt.Sprintf("encode/np%d", np), func(b *testing.B) {
			st := e.savedState()
			snap := &checkpoint.Snapshot{Rank: 0, Seq: 1}
			b.ReportAllocs()
			for b.Loop() {
				snap.DeferProtState(st)
				release, err := snap.BorrowProtState()
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}

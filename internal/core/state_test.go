package core

// The protocol-state codec against gob itself: a checkpoint's save
// encodes engineState through the checkpoint package's codec, which writes
// the type descriptors from a cache and the value through a pooled, primed
// encoder, and what it writes must be what a gob encoder of its own would
// write.

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
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
			ch := &rppChannel{Phases: map[int64]int{}}
			for j := size(); j > 0; j-- {
				date := rng.Int63n(1<<20) + 1
				ch.MaxDate = max(ch.MaxDate, date)
				ch.Phases[date] = rng.Intn(9)
			}
			s.RPP[rng.Intn(64)] = ch
		}
	}
	if rng.Intn(4) != 0 {
		s.Logs = &logStore{PerDst: map[int][]logEntry{}}
		for i := size(); i > 0; i-- {
			dst, date := rng.Intn(64), int64(0)
			for j := 1 + size(); j > 0; j-- {
				date += rng.Int63n(5) + 1
				data := make([]byte, rng.Intn(40))
				rng.Read(data)
				le := logEntry{Dst: dst, Date: date, Phase: rng.Intn(9), Tag: rng.Intn(100), WireLen: rng.Intn(1 << 16), Data: data}
				s.Logs.PerDst[dst] = append(s.Logs.PerDst[dst], le)
				s.Logs.Bytes += int64(le.WireLen)
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
		snap.DeferProtState(func() any { return s })
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

// TestCheckpointWireForm pins the bytes a checkpoint's ProtState holds for
// states whose maps have at most one entry each, so a single encoding.
// The checkpoint form is wire-visible: without ModelBytes a checkpoint
// costs its encoded length in virtual time, so renaming a type or field,
// or sending nil where an empty map was, moves every pinned checkpoint
// volume. A failure here names such a change.
func TestCheckpointWireForm(t *testing.T) {
	encode := func(state func() any) string {
		t.Helper()
		snap := &checkpoint.Snapshot{}
		snap.DeferProtState(state)
		release, err := snap.BorrowProtState()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return hex.EncodeToString(snap.ProtState)
	}
	// One inter-cluster peer (rank 1) that rank 0 logged a message to and
	// received one from, and two checkpoints, so every map has one entry.
	e, _ := newTestEngine(0, []int{0, 1})
	fresh := encode(e.savedState)
	m := appMsg(0, 1, 7, 64)
	m.Data = []byte("hi")
	if _, err := e.PreSend(m); err != nil {
		t.Fatal(err)
	}
	in := appMsg(1, 0, 1, 10)
	in.Date, in.Phase = 4, 2
	e.OnDeliver(in)
	e.OnCheckpoint(&checkpoint.Snapshot{Seq: 1})
	e.OnCheckpoint(&checkpoint.Snapshot{Seq: 2})
	full := encode(e.savedState)
	// A GCAck empties the channel's phases; the channel and its empty
	// map stay.
	e.OnCtl(&transport.Msg{Src: 1, Kind: transport.Ctl, CtlBody: GCAck{CkptDate: 4}})
	pruned := encode(e.savedState)
	for _, c := range []struct{ name, got, want string }{
		{"zero engineState", encode(func() any { return &engineState{} }), wireZero},
		{"fresh engine: empty RPP and PerDst", fresh, wireFresh},
		{"one entry per map", full, wireFull},
		{"pruned channel: empty Phases", pruned, wirePruned},
	} {
		if c.got != c.want {
			t.Errorf("%s: the checkpoint wire form changed (a type, field or map's nil-ness of engineState, rppChannel, logStore or logEntry):\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}

const (
	// wireTypes is the type descriptors gob writes first: engineState,
	// its maps, rppChannel, logStore and logEntry, by name and field.
	wireTypes = "ffa77f0301010b656e67696e65537461746501ff8000010a0104446174650104" +
		"0001055068617365010400010352505001ff860001044c6f677301ff8800010b" +
		"47435361666556616c6964010200010a47435361666544617465010400010b47" +
		"435361666544656c697601ff9000010e474350656e64696e6756616c69640102" +
		"00010d474350656e64696e6744617465010400010e474350656e64696e674465" +
		"6c697601ff9000000029ff85040101186d61705b696e745d2a636f72652e7270" +
		"704368616e6e656c01ff8600010401ff82000024ff81030102ff820001020107" +
		"4d617844617465010400010650686173657301ff840000001dff830401010d6d" +
		"61705b696e7436345d696e7401ff84000104010400002cff87030101086c6f67" +
		"53746f726501ff88000102010650657244737401ff8e00010542797465730104" +
		"00000028ff8d040101176d61705b696e745d5b5d636f72652e6c6f67456e7472" +
		"7901ff8e00010401ff8c00000dff8b020102ff8c0001ff8a00004eff89030101" +
		"086c6f67456e74727901ff8a0001060103447374010400010444617465010400" +
		"0105506861736501040001035461670104000107576972654c656e0104000104" +
		"44617461010a0000001dff8f0401010d6d61705b696e745d696e74363401ff90" +
		"00010401040000"
	wireZero   = wireTypes + "03ff8000"
	wireFresh  = wireTypes + "0bff80020201000101000000"
	wireFull   = wireTypes + "3aff8001040106010102010801010804000101010201010201020102010e01ff80010268690001ff80000101010401010208010101040101020800"
	wirePruned = wireTypes + "38ff800104010601010201080100000101010201010201020102010e01ff80010268690001ff80000101010401010208010101040101020800"
)

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
// is logged. The receiver acks every 64th send, as a checkpoint's GCAck
// does, so the log stays bounded and ns/op does not move with b.N; the
// prune's cost is spread over the sends it reclaims.
func BenchmarkEnginePreSend(b *testing.B) {
	e, _ := newTestEngine(0, []int{0, 1})
	payload := make([]byte, 128)
	ack := &transport.Msg{Src: 1, Kind: transport.Ctl}
	b.ReportAllocs()
	for n := 1; b.Loop(); n++ {
		m := &transport.Msg{Src: 0, Dst: 1, Kind: transport.App, WireLen: 128, Data: payload}
		if _, err := e.PreSend(m); err != nil {
			b.Fatal(err)
		}
		if n%64 == 0 {
			ack.CtlBody = GCAck{DeliveredFromYou: m.Date}
			e.OnCtl(ack)
		}
	}
}

// BenchmarkEngineOnCheckpoint measures the protocol's share of a
// checkpoint, for an engine holding a few messages per peer of one remote
// 32-rank cluster, at np = 64, 1024 and 16384, in its two halves: capture
// is OnCheckpoint on the rank's task (garbage-collection watermarks, the
// state handed to the save), encode is the save's conversion to the
// checkpoint form and its encode on its own goroutine, its buffer released
// as a staged save releases it.
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
			snap := &checkpoint.Snapshot{Rank: 0, Seq: 1}
			b.ReportAllocs()
			for b.Loop() {
				snap.DeferProtState(e.savedState)
				release, err := snap.BorrowProtState()
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}

// BenchmarkEngineGCAck measures a GCAck's prune in the mlog shape, np =
// 1024 in singleton clusters: each op logs one message to rank 1 and acks
// it, while others more destinations each hold eight logged entries the
// ack must not visit. The ns per ack must not grow with others.
func BenchmarkEngineGCAck(b *testing.B) {
	for _, others := range []int{32, 992} {
		b.Run(fmt.Sprintf("others%d", others), func(b *testing.B) {
			assign := make([]int, 1024)
			for r := range assign {
				assign[r] = r
			}
			e, _ := newTestEngine(0, assign)
			payload := make([]byte, 32)
			send := func(dst int) int64 {
				m := &transport.Msg{Src: 0, Dst: dst, Kind: transport.App, WireLen: 256, Data: payload}
				if _, err := e.PreSend(m); err != nil {
					b.Fatal(err)
				}
				return m.Date
			}
			for range 8 {
				for dst := 2; dst < 2+others; dst++ {
					send(dst)
				}
			}
			ack := &transport.Msg{Src: 1, Kind: transport.Ctl}
			b.ReportAllocs()
			for b.Loop() {
				ack.CtlBody = GCAck{DeliveredFromYou: send(1)}
				e.OnCtl(ack)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ack")
		})
	}
}

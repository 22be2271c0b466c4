package checkpoint

// Ownership and aliasing tests of the Store contract: a store copies
// what a caller passes to Save and never retains, recycles or pools it;
// Load returns a private copy; and the buffers the redundant layouts
// build, hand to their targets and take back for reuse never surface in
// — or under — anything a caller holds, including buffers a discarded
// stage gave back. Run under -race: the property test drives every
// backend from several goroutines at once.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// ownershipBackends builds the four in-memory layouts fresh. shards is
// the target count the fault plane addresses.
var ownershipBackends = []struct {
	name   string
	shards int
	// verifies reports that the layout detects a corrupt shard; a plain
	// one serves the damage.
	verifies bool
	mk       func() (Store, error)
}{
	{"mem", 1, false, func() (Store, error) { return NewMemStore(0, 0), nil }},
	{"sharded:3", 3, false, func() (Store, error) { return NewShardedStore(3, 0, 0, nil), nil }},
	{"ec:3+2", 5, true, func() (Store, error) { return NewECStore(3, 2, 0, 0, nil) }},
	{"replica:3", 3, true, func() (Store, error) { return NewReplicatedStore(3, 0, 0, nil) }},
}

// randomSnap draws a snapshot whose byte fields range from empty to a
// few KiB, so recycled fragment buffers are reused at, below and above
// their capacity.
func randomSnap(rng *rand.Rand, rank, seq int) *Snapshot {
	blob := func(max int) []byte {
		if rng.Intn(8) == 0 {
			return nil
		}
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	s := &Snapshot{
		Rank: rank, Seq: seq, TakenVT: vtime.Time(rng.Int63n(1 << 40)),
		CkptCallIdx: rng.Intn(100), CollSeq: rng.Int63n(1000),
		AppState: blob(6000), ProtState: blob(300),
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Mailbox = append(s.Mailbox, &transport.Msg{
			Src: rng.Intn(8), Dst: rank, Kind: transport.App, Tag: rng.Intn(9),
			Date: rng.Int63n(50), WireLen: rng.Intn(4096), Data: blob(64),
			SendVT: vtime.Time(rng.Int63n(1000)), ArriveVT: vtime.Time(rng.Int63n(1000)),
		})
	}
	return s
}

// canonical is the snapshot's deterministic encoding: two snapshots are
// the same checkpoint exactly when their encodings are equal.
func canonical(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Error(err) // not Fatal: the property test calls this off the test goroutine
	}
	return b
}

// scribble overwrites every byte the snapshot points to.
func scribble(s *Snapshot) {
	fill := func(b []byte) {
		for i := range b {
			b[i] ^= 0x5A
		}
	}
	fill(s.AppState)
	fill(s.ProtState)
	for _, m := range s.Mailbox {
		fill(m.Data)
		m.Tag = -1
	}
	s.CollSeq = -1
}

// corruptFlip applies the fault plane's corrupt damage to a copy of s.
func corruptFlip(s *Snapshot) *Snapshot {
	c := s.Clone()
	if len(c.AppState) > 0 {
		c.AppState[0] ^= 0xA5
	} else {
		c.AppState = []byte{0xA5}
	}
	return c
}

// TestStoreOwnershipProperty: seeded random save / rollback-and-re-save
// of a lower sequence / sequence restart (a store reused by a new run) /
// load sequences, from four goroutines over disjoint ranks, against
// every backend bare and behind a kill and a corrupt fault. After every
// Save the caller's buffers are scribbled over, after every Load the
// returned snapshot is; every successful Load must still equal, byte
// for byte, the deep copy taken when that (rank, sequence) was last
// saved — with the documented first-byte flip where a plain layout
// serves a corrupt shard undetected.
func TestStoreOwnershipProperty(t *testing.T) {
	const faultVT = 4000
	for _, be := range ownershipBackends {
		for _, fault := range []string{"none", "kill", "corrupt"} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", be.name, fault, seed), func(t *testing.T) {
					st, err := be.mk()
					if err != nil {
						t.Fatal(err)
					}
					faultShard := int(seed) % be.shards
					switch fault {
					case "kill":
						st, err = NewFaultyStore(st, ShardFault{Shard: faultShard, AtVT: faultVT, Kind: FaultKill})
					case "corrupt":
						st, err = NewFaultyStore(st, ShardFault{Shard: faultShard, AtVT: faultVT, Kind: FaultCorrupt})
					}
					if err != nil {
						t.Fatal(err)
					}
					var wg sync.WaitGroup
					for g := 0; g < 4; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(seed<<8 | int64(g)))
							ranks := []int{2 * g, 2*g + 1}
							// want[rank][seq] is a deep copy of the last save of (rank, seq).
							want := map[int]map[int]*Snapshot{ranks[0]: {}, ranks[1]: {}}
							cur := map[int]int{}
							// saved[rank]: cur[rank] is a sequence the rank just saved.
							saved := map[int]bool{}
							for op := 0; op < 400; op++ {
								at := vtime.Time(10 + 20*op)
								rank := ranks[rng.Intn(2)]
								switch r := rng.Intn(20); {
								case r == 0: // a new run reuses the store
									cur[rank], saved[rank] = 0, false
								case r == 1 && cur[rank] > 1: // rollback: re-save a lower sequence next
									cur[rank] -= 1 + rng.Intn(min(cur[rank], 3))
									saved[rank] = false
								case r < 12:
									cur[rank]++
									s := randomSnap(rng, rank, cur[rank])
									want[rank][s.Seq] = s.Clone()
									if _, err := st.Save(s, at); err != nil {
										t.Error(err)
										return
									}
									scribble(s)
									saved[rank] = true
								default:
									seq := cur[rank] - rng.Intn(5) + 1
									got, _, ok := st.Load(rank, seq, at)
									// One faulted shard costs a verifying layout nothing and a
									// plain one the ranks placed on it.
									hit := fault != "none" && !be.verifies && at >= faultVT && rank%be.shards == faultShard
									if !ok {
										if seq == cur[rank] && saved[rank] && !(hit && fault == "kill") {
											t.Errorf("rank %d at %d: seq %d, just saved, is not loadable", rank, at, seq)
										}
										continue
									}
									exp := want[rank][seq]
									if exp == nil {
										t.Errorf("rank %d seq %d: loaded a snapshot that was never saved", rank, seq)
										continue
									}
									if hit && fault == "corrupt" {
										exp = corruptFlip(exp)
									}
									if !bytes.Equal(canonical(t, got), canonical(t, exp)) {
										t.Errorf("rank %d seq %d at %d: loaded snapshot differs from the copy taken at Save", rank, seq, at)
									}
									scribble(got)
								}
							}
						}(g)
					}
					wg.Wait()
				})
			}
		}
	}
}

// TestStoreIsolationAllBackends is TestStoreSaveIsolation for every
// layout: mutating the saved snapshot after Save, or a loaded one, never
// reaches the store.
func TestStoreIsolationAllBackends(t *testing.T) {
	for _, be := range ownershipBackends {
		st, err := be.mk()
		if err != nil {
			t.Fatal(err)
		}
		s := codecSnap(1, 1)
		want := canonical(t, s)
		if _, err := st.Save(s, 10); err != nil {
			t.Fatal(err)
		}
		scribble(s)
		for pass := 0; pass < 2; pass++ {
			got, _, ok := st.Load(1, 1, 20)
			if !ok {
				t.Fatalf("%s: load failed", be.name)
			}
			if !bytes.Equal(canonical(t, got), want) {
				t.Fatalf("%s: pass %d: store shares memory with the caller's or a loaded snapshot", be.name, pass)
			}
			scribble(got)
		}
	}
}

// TestStageCopiesBeforeItReturns: the runtime hands a snapshot to Stage
// and is done with it; scribbling over it as soon as Stage returns, long
// before Commit, never reaches the store, bare or behind the fault plane.
func TestStageCopiesBeforeItReturns(t *testing.T) {
	for _, be := range ownershipBackends {
		for _, wrap := range []bool{false, true} {
			st, err := be.mk()
			if err == nil && wrap {
				st, err = NewFaultyStore(st)
			}
			if err != nil {
				t.Fatal(err)
			}
			s := codecSnap(1, 1)
			want := canonical(t, s)
			p, err := Stage(st, s)
			if err != nil {
				t.Fatal(err)
			}
			scribble(s)
			if _, err := p.Commit(10); err != nil {
				t.Fatal(err)
			}
			got, _, ok := st.Load(1, 1, 20)
			if !ok || !bytes.Equal(canonical(t, got), want) {
				t.Fatalf("%s (faulty=%v): the scribble after Stage reached the store (ok=%v)", be.name, wrap, ok)
			}
		}
	}
}

// TestDiscardChangesNothing: a staged save dropped with Discard — the
// runtime's refused save past a kill fence — leaves every observable and
// every stored byte as they were. A redundant layout's fragment buffers go
// back to its spare list, and the next stage builds in exactly those, so
// even buffers left full of garbage must not show: the next save stores
// what a store that never discarded stores.
func TestDiscardChangesNothing(t *testing.T) {
	for _, be := range ownershipBackends {
		st, err := be.mk()
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := be.mk()
		for seq := 1; seq <= historyKeep+1; seq++ {
			for r := 0; r < 4; r++ {
				for _, x := range []Store{st, twin} {
					if _, err := x.Save(codecSnap(r, seq), vtime.Time(10*seq+r)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		before := storeState(t, st)
		next := codecSnap(2, historyKeep+2)
		p, err := Stage(st, next)
		if err != nil {
			t.Fatal(err)
		}
		g, grouped := p.p.(*groupSave)
		var spares int
		if grouped {
			spares = len(g.ss.spare)
			for _, b := range g.bufs {
				for i := range b {
					b[i] = 0xEE
				}
			}
		}
		p.Discard()
		if after := storeState(t, st); after != before {
			t.Fatalf("%s: Discard changed the store:\nbefore:\n%s\nafter:\n%s", be.name, before, after)
		}
		if !grouped {
			continue
		}
		if n := len(g.ss.spare) - spares; n != len(g.bufs) {
			t.Fatalf("%s: Discard returned %d buffers to the spare list, want the group's %d", be.name, n, len(g.bufs))
		}
		q, err := Stage(st, next)
		if err != nil {
			t.Fatal(err)
		}
		discarded := map[*byte]bool{}
		for _, b := range g.bufs {
			discarded[&b[0]] = true
		}
		for i, b := range q.p.(*groupSave).bufs {
			if !discarded[&b[0]] {
				t.Fatalf("%s: fragment %d of the next stage is not built in a discarded buffer", be.name, i)
			}
		}
		if _, err := q.Commit(100); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Save(next, 100); err != nil {
			t.Fatal(err)
		}
		if a, b := storeState(t, twin), storeState(t, st); a != b {
			t.Fatalf("%s: a save built in discarded buffers stores other bytes:\nnever discarded:\n%s\nrecycled:\n%s", be.name, a, b)
		}
	}
}

// TestCorruptReadLeavesStoredBytesClean: the corrupt fault damages what
// a read returns, never what the shard holds — a read issued before the
// fault's AtVT, made after a corrupted one, returns clean bytes.
func TestCorruptReadLeavesStoredBytesClean(t *testing.T) {
	for _, be := range ownershipBackends {
		inner, err := be.mk()
		if err != nil {
			t.Fatal(err)
		}
		// Rank 0 with round-robin placement lives on (or starts at) shard 0.
		st, err := NewFaultyStore(inner, ShardFault{Shard: 0, AtVT: 500, Kind: FaultCorrupt})
		if err != nil {
			t.Fatal(err)
		}
		s := codecSnap(0, 1)
		want := canonical(t, s)
		if _, err := st.Save(s, 10); err != nil {
			t.Fatal(err)
		}
		late, _, ok := st.Load(0, 1, 1000)
		if !ok {
			t.Fatalf("%s: corrupt read refused", be.name)
		}
		if clean := bytes.Equal(canonical(t, late), want); clean != be.verifies {
			t.Errorf("%s: read through the corrupt shard clean=%v, want %v", be.name, clean, be.verifies)
		}
		if st.FaultStats()[0].CorruptReads == 0 {
			t.Errorf("%s: the corrupt shard was not read", be.name)
		}
		early, _, ok := st.Load(0, 1, 20)
		if !ok || !bytes.Equal(canonical(t, early), want) {
			t.Errorf("%s: read issued before the fault returned damaged bytes (ok=%v)", be.name, ok)
		}
	}
}

// TestSavingOneBufferManyTimes saves the same AppState slice 1 000 times
// under increasing sequences — what a caller that reuses its capture
// buffer, or the benchmark's probe, does. No recycling may swallow the
// caller's slice: it stays intact and every retained generation loads it
// back.
func TestSavingOneBufferManyTimes(t *testing.T) {
	for _, be := range ownershipBackends {
		st, err := be.mk()
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, 8<<10)
		rand.New(rand.NewSource(7)).Read(img)
		orig := append([]byte(nil), img...)
		const saves = 1000
		for seq := 1; seq <= saves; seq++ {
			s := &Snapshot{Rank: 0, Seq: seq, TakenVT: vtime.Time(seq), AppState: img, ProtState: img[:100]}
			if _, err := st.Save(s, vtime.Time(seq)); err != nil {
				t.Fatal(err)
			}
			if seq%100 == 0 && !bytes.Equal(img, orig) {
				t.Fatalf("%s: the caller's buffer changed by save %d", be.name, seq)
			}
		}
		for seq := saves - historyKeep + 1; seq <= saves; seq++ {
			got, _, ok := st.Load(0, seq, saves)
			if !ok || !bytes.Equal(got.AppState, orig) || !bytes.Equal(got.ProtState, orig[:100]) {
				t.Fatalf("%s: generation %d damaged or lost (ok=%v)", be.name, seq, ok)
			}
		}
	}
}

// TestRedundantSaveAllocatesNothingPerImage bounds what a steady-state
// save allocates: once the first generations are in place, an ec or
// replica save builds its fragments in buffers its targets handed back,
// so a 512 KiB snapshot costs bookkeeping, not image-sized garbage (the
// pre-recycling path allocated about 5.5× the snapshot per ec save).
func TestRedundantSaveAllocatesNothingPerImage(t *testing.T) {
	const image = 512 << 10
	img := make([]byte, image)
	rand.New(rand.NewSource(8)).Read(img)
	for _, be := range ownershipBackends[2:] {
		st, err := be.mk()
		if err != nil {
			t.Fatal(err)
		}
		seq := 0
		save := func(n int) {
			for i := 0; i < n; i++ {
				seq++
				s := &Snapshot{Rank: seq % 4, Seq: 1 + seq/4, AppState: img, ProtState: img[:256]}
				if _, err := st.Save(s, vtime.Time(seq)); err != nil {
					t.Fatal(err)
				}
			}
		}
		save(4 * (historyKeep + 1)) // fill every rank's history
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const saves = 40
		save(saves)
		runtime.ReadMemStats(&after)
		perSave := (after.TotalAlloc - before.TotalAlloc) / saves
		t.Logf("%s: %d B allocated per steady-state save of a %d B snapshot", be.name, perSave, image)
		if perSave > image/16 {
			t.Errorf("%s: a steady-state save allocates %d B, want under 1/16 of the %d B snapshot", be.name, perSave, image)
		}
	}
}

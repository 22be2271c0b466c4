package checkpoint

// Staging is invisible: Stage followed by Commit is Save. These tests hold
// a store driven through Stage and Commit, with discarded stages mixed in,
// to a twin driven through Save, observable for observable and stored byte
// for stored byte: every in-memory layout, bare and behind each fault kind,
// with the fault placed on, just before and just after a commit's issue
// time. The concurrency case stages from eight goroutines at once, as the
// runtime's ranks do, and commits in a fixed virtual-time order; run it
// under -race.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"hydee/internal/vtime"
)

// stagedBackends are the in-memory layouts with a bandwidth model, so
// contention queues, degrade factors and completion times all show.
var stagedBackends = []struct {
	name   string
	shards int
	mk     func() (Store, error)
}{
	{"mem", 1, func() (Store, error) { return NewMemStore(1e9, 2e9), nil }},
	{"sharded:3", 3, func() (Store, error) { return NewShardedStore(3, 1e9, 2e9, nil), nil }},
	{"ec:4+2", 6, func() (Store, error) { return NewECStore(4, 2, 1e9, 2e9, nil) }},
	{"replica:3", 3, func() (Store, error) { return NewReplicatedStore(3, 1e9, 2e9, nil) }},
}

// faulted adds to st one fault of each kind named in kinds ("kill",
// "corrupt" or "degrade", joined by "+") on shard, the j-th from
// at+40·j on: all in one NewFaultyStore call or, apart, one call each.
// "none" leaves st bare.
func faulted(st Store, kinds string, shard int, at vtime.Time, apart bool) (Store, error) {
	if kinds == "none" {
		return st, nil
	}
	var faults []ShardFault
	for j, kind := range strings.Split(kinds, "+") {
		f := ShardFault{Shard: shard, AtVT: at + vtime.Time(40*j)}
		switch kind {
		case "kill":
			f.Kind = FaultKill
		case "corrupt":
			f.Kind = FaultCorrupt
		case "degrade":
			f.Kind, f.Factor = FaultDegrade, 3
		default:
			return nil, fmt.Errorf("unknown fault %q", kind)
		}
		faults = append(faults, f)
	}
	if !apart {
		return NewFaultyStore(st, faults...)
	}
	for _, f := range faults {
		var err error
		if st, err = NewFaultyStore(st, f); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// storeState renders what a store reports — Stats, ShardStats,
// DegradedLoads, FaultStats — and then every snapshot its in-memory
// targets hold, encoded, target by target.
func storeState(t testing.TB, st Store) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", st.Stats())
	if f, ok := st.(FaultyStore); ok {
		fmt.Fprintf(&b, "faults %+v\n", f.FaultStats())
	}
	if l, ok := st.(interface{ ShardStats() []StoreStats }); ok {
		fmt.Fprintf(&b, "shards %+v\n", l.ShardStats())
	}
	if l, ok := st.(interface{ DegradedLoads() int64 }); ok {
		fmt.Fprintf(&b, "degraded %d\n", l.DegradedLoads())
	}
	held(t, &b, st)
	return b.String()
}

// held appends every snapshot st's in-memory targets hold.
func held(t testing.TB, b *strings.Builder, st Store) {
	var targets []Store
	switch s := st.(type) {
	case *MemStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, r := range slices.Sorted(maps.Keys(s.gens)) {
			for _, g := range s.gens[r] {
				fmt.Fprintf(b, "%x\n", canonical(t, g))
			}
		}
		return
	case *ShardedStore:
		targets = s.targets
	case *ECStore:
		targets = s.targets
	case *ReplicatedStore:
		targets = s.targets
	default:
		t.Fatalf("held: unexpected target %T", st)
	}
	for i, tg := range targets {
		fmt.Fprintf(b, "target %d\n", i)
		held(t, b, tg)
	}
}

// TestStageCommitIsSave: seeded saves, re-saves of lower sequences,
// sequence restarts, loads and discarded stages, applied to two fresh
// stores of one layout and fault — through Save on one, through Stage,
// a scribble over the caller's snapshot, and Commit on the other, the
// discards on the staged store alone. Every completion time and load must
// agree, and so must the two stores' full state every 40 operations. A
// schedule of several faults is added to the saved store in one
// NewFaultyStore call and to the staged one in one call per fault, so the
// same run also holds repeated calls to one call with every fault.
func TestStageCommitIsSave(t *testing.T) {
	const ranks, ops = 4, 240
	opVT := func(op int) vtime.Time { return vtime.Time(10 + 20*op) }
	for bi, be := range stagedBackends {
		for _, fault := range []string{"none", "kill", "corrupt", "degrade", "degrade+corrupt+degrade", "degrade+kill"} {
			for _, off := range []vtime.Time{-1, 0, 1} {
				t.Run(fmt.Sprintf("%s/%s/%+d", be.name, fault, off), func(t *testing.T) {
					seed := int64(bi*100) + int64(off) + 7
					faultVT := opVT(ops/2) + off
					mk := func(apart bool) Store {
						st, err := be.mk()
						if err == nil {
							st, err = faulted(st, fault, int(seed)%be.shards, faultVT, apart)
						}
						if err != nil {
							t.Fatal(err)
						}
						return st
					}
					saved, staged := mk(false), mk(true)
					rng := rand.New(rand.NewSource(seed))
					cur := make([]int, ranks)
					for op := 0; op < ops; op++ {
						at := opVT(op)
						rank := rng.Intn(ranks)
						switch r := rng.Intn(20); {
						case r == 0: // a new run reuses the store
							cur[rank] = 0
						case r == 1 && cur[rank] > 1: // rollback: re-save a lower sequence next
							cur[rank] -= 1 + rng.Intn(min(cur[rank]-1, 2))
						case r < 5: // a save refused at the fence
							p, err := Stage(staged, randomSnap(rng, rank, cur[rank]+1))
							if err != nil {
								t.Fatal(err)
							}
							p.Discard()
						case r < 14:
							cur[rank]++
							s := randomSnap(rng, rank, cur[rank])
							want, err := saved.Save(s, at)
							if err != nil {
								t.Fatal(err)
							}
							p, err := Stage(staged, s)
							if err != nil {
								t.Fatal(err)
							}
							scribble(s)
							got, err := p.Commit(at)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("op %d: staged save of rank %d seq %d completes at %v, Save at %v", op, rank, cur[rank], got, want)
							}
						default:
							seq := cur[rank] - rng.Intn(4) + 1
							a, aEnd, aOK := saved.Load(rank, seq, at)
							b, bEnd, bOK := staged.Load(rank, seq, at)
							if aOK != bOK || aEnd != bEnd || (aOK && !bytes.Equal(canonical(t, a), canonical(t, b))) {
								t.Fatalf("op %d: load of rank %d seq %d: staged (%v, %v) vs saved (%v, %v)", op, rank, seq, bOK, bEnd, aOK, aEnd)
							}
						}
						if op%40 == 39 || op == ops-1 {
							if a, b := storeState(t, saved), storeState(t, staged); a != b {
								t.Fatalf("after op %d the stores differ:\nsaved:\n%s\nstaged:\n%s", op, a, b)
							}
						}
					}
				})
			}
		}
	}
}

// TestStagedFileShardSavesOnce: over a faulted file-backed sharded store,
// whose files are written by FileStore.Save under the turn, the stage
// takes no copy of its own — the snapshot goes to commit as it is — and
// the staged store ends as one fed by Save: same completion times, same
// dropped writes past a kill, same loads.
func TestStagedFileShardSavesOnce(t *testing.T) {
	mk := func() Store {
		sh, err := NewShardedFileStore(t.TempDir(), 2, 1e9, 2e9, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := faulted(sh, "kill", 1, 95, false)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	saved, staged := mk(), mk()
	rng := rand.New(rand.NewSource(5))
	for seq := 1; seq <= 6; seq++ {
		for r := 0; r < 4; r++ {
			at := vtime.Time(20*seq + r)
			s := randomSnap(rng, r, seq)
			want, err := saved.Save(s, at)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Stage(staged, s)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := p.p.(shardWrite); !ok || w.fs != s {
				t.Fatalf("rank %d seq %d: staged %T, want the caller's snapshot handed to commit uncopied", r, seq, p.p)
			}
			if got, err := p.Commit(at); err != nil || got != want {
				t.Fatalf("rank %d seq %d: staged save completes at %v (%v), Save at %v", r, seq, got, err, want)
			}
		}
	}
	for r := 0; r < 4; r++ {
		for seq := 1; seq <= 6; seq++ {
			a, aEnd, aOK := saved.Load(r, seq, 200)
			b, bEnd, bOK := staged.Load(r, seq, 200)
			if aOK != bOK || aEnd != bEnd || (aOK && !bytes.Equal(canonical(t, a), canonical(t, b))) {
				t.Fatalf("load of rank %d seq %d: staged (%v, %v) vs saved (%v, %v)", r, seq, bOK, bEnd, aOK, aEnd)
			}
		}
	}
	a, b := saved.(FaultyStore), staged.(FaultyStore)
	if a.Stats() != b.Stats() || !slices.Equal(a.FaultStats(), b.FaultStats()) {
		t.Fatalf("stats differ: staged %+v %+v, saved %+v %+v", b.Stats(), b.FaultStats(), a.Stats(), a.FaultStats())
	}
	if a.FaultStats()[1].LostWrites == 0 {
		t.Fatal("no write reached the killed shard")
	}
}

// TestConcurrentStagesCommitInOrder: eight ranks per wave stage at once,
// from eight goroutines sharing the spare list, scribble over their
// snapshots, and commit in rank order at rising virtual times; a shard
// dies halfway. The store must end exactly as one fed the same saves by
// sequential Save calls, with the same completion times.
func TestConcurrentStagesCommitInOrder(t *testing.T) {
	const ranks, waves = 8, 12
	waveVT := func(w, r int) vtime.Time { return vtime.Time(1000*(w+1) + 10*r) }
	for _, be := range stagedBackends {
		t.Run(be.name, func(t *testing.T) {
			mk := func() Store {
				st, err := be.mk()
				if err == nil {
					st, err = faulted(st, "kill", 1%be.shards, waveVT(waves/2, 0), false)
				}
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			saved, staged := mk(), mk()
			rng := rand.New(rand.NewSource(11))
			for w := 0; w < waves; w++ {
				snaps := make([]*Snapshot, ranks)
				want := make([]vtime.Time, ranks)
				for r := range snaps {
					snaps[r] = randomSnap(rng, r, w+1)
					end, err := saved.Save(snaps[r], waveVT(w, r))
					if err != nil {
						t.Fatal(err)
					}
					want[r] = end
				}
				ps := make([]Staged, ranks)
				var wg sync.WaitGroup
				for r := range snaps {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p, err := Stage(staged, snaps[r])
						if err != nil {
							t.Error(err)
						}
						scribble(snaps[r])
						ps[r] = p
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				for r, p := range ps {
					got, err := p.Commit(waveVT(w, r))
					if err != nil {
						t.Fatal(err)
					}
					if got != want[r] {
						t.Fatalf("wave %d rank %d: staged save completes at %v, Save at %v", w, r, got, want[r])
					}
				}
			}
			if a, b := storeState(t, saved), storeState(t, staged); a != b {
				t.Fatalf("the stores differ:\nsaved:\n%s\nstaged:\n%s", a, b)
			}
		})
	}
}

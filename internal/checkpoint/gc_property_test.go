package checkpoint

import (
	"math/rand"
	"sync"
	"testing"

	"hydee/internal/vtime"
)

// Property test for store GC racing failures (ROADMAP item): cluster
// members write checkpoint generations concurrently — lagging each other by
// at most one sequence, as the coordinated protocol's flush markers
// guarantee — while store GC prunes old generations. A failure may strike
// at ANY interleaving point, killing each member before or after its
// current save, and the supervisor then restores every member from the
// minimum sequence completed by all of them, from its own record of the
// saves that returned, exactly as launchRound does (stores keep no restore
// points). That snapshot must always still be loadable: if
// GC ever reclaims it, the restart lands in ErrCheckpointLost territory.

// runGCProperty drives one cluster through maxSeq generations with a
// randomized real-time schedule and a randomized kill point, then asserts
// the min-completed sequence of the cluster is loadable for every member.
func runGCProperty(t *testing.T, st Store, seed int64, ranks []int, maxSeq int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The kill strikes somewhere inside a random generation: each member
	// independently either completes its save for that generation or dies
	// just before it (spread stays <= 1 thanks to the round gate below).
	killSeq := 2 + rng.Intn(maxSeq-2)
	killedBeforeSave := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		killedBeforeSave[r] = rng.Intn(2) == 0
	}

	var mu sync.Mutex
	roundDone := make([]chan struct{}, maxSeq+2)
	for i := range roundDone {
		roundDone[i] = make(chan struct{})
	}
	finishCounts := make([]int, maxSeq+2)
	completed := make(map[int]int, len(ranks)) // rank -> newest seq saved
	markDone := func(rank, seq, members int) {
		mu.Lock()
		completed[rank] = seq
		finishCounts[seq]++
		if finishCounts[seq] == members {
			close(roundDone[seq])
		}
		mu.Unlock()
	}

	// How many members survive to complete each round's gate: members that
	// die before their killSeq save never reach markDone for killSeq.
	aliveAt := func(seq int) int {
		if seq < killSeq {
			return len(ranks)
		}
		n := 0
		for _, r := range ranks {
			if !killedBeforeSave[r] {
				n++
			}
		}
		return n
	}

	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(r int, rng *rand.Rand) {
			defer wg.Done()
			for seq := 1; seq <= killSeq; seq++ {
				if seq > 1 {
					<-roundDone[seq-1] // cluster coordination barrier
				}
				if seq == killSeq && killedBeforeSave[r] {
					return // fail-stop just before this generation's save
				}
				// Jitter the real-time interleaving of the saves.
				for i := 0; i < rng.Intn(200); i++ {
					_ = i
				}
				snap := &Snapshot{Rank: r, Seq: seq, ModelBytes: int64(1000 + rng.Intn(1000))}
				if _, err := st.Save(snap, vtime.Time(seq)); err != nil {
					t.Errorf("rank %d seq %d: %v", r, seq, err)
					return
				}
				markDone(r, seq, aliveAt(seq))
			}
		}(r, rand.New(rand.NewSource(seed^int64(r<<16))))
	}
	wg.Wait()

	// The failure round: restore from the minimum completed sequence.
	min := 0
	for i, r := range ranks {
		seq := completed[r]
		if i == 0 || seq < min {
			min = seq
		}
	}
	if want := killSeq - 1; min != want && min != killSeq {
		t.Fatalf("min completed = %d, want %d or %d", min, want, killSeq)
	}
	if min == 0 {
		return // restart from initial state; nothing to load
	}
	for _, r := range ranks {
		if _, _, ok := st.Load(r, min, 0); !ok {
			t.Fatalf("seed %d: rank %d: min-completed seq %d not loadable (GC raced the failure)", seed, r, min)
		}
	}
}

func TestMemStoreGCNeverReclaimsMinCompletedSeq(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		runGCProperty(t, NewMemStore(0, 0), seed, []int{0, 1, 2, 3}, 40)
	}
}

func TestFileStoreGCNeverReclaimsMinCompletedSeq(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st, err := NewFileStore(t.TempDir(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		runGCProperty(t, st, seed, []int{0, 1, 2}, 20)
	}
}

// TestKillRestartRestoreCycle drives the Save/kill/Load cycle the
// supervisor performs deterministically: a member dies while the cluster
// is writing generation 7, so the cluster restores from 6 — the minimum of
// the saves each member completed — which must load for every member.
func TestKillRestartRestoreCycle(t *testing.T) {
	st := NewMemStore(0, 0)
	ranks := []int{0, 1, 2}
	completed := make(map[int]int)
	for seq := 1; seq <= 7; seq++ {
		for i, r := range ranks {
			if seq == 7 && i == 2 {
				continue // rank 2 killed while writing seq 7
			}
			if _, err := st.Save(&Snapshot{Rank: r, Seq: seq, ModelBytes: 100}, vtime.Time(seq)); err != nil {
				t.Fatal(err)
			}
			completed[r] = seq
		}
	}
	min := 10
	for _, r := range ranks {
		if s := completed[r]; s < min {
			min = s
		}
	}
	if min != 6 {
		t.Fatalf("min completed = %d, want 6", min)
	}
	for _, r := range ranks {
		if _, _, ok := st.Load(r, min, 0); !ok {
			t.Fatalf("rank %d: seq %d not loadable after mid-generation kill", r, min)
		}
	}
}

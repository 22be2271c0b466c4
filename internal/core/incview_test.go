package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hydee/internal/rollback"
)

// denseIncs is the reference incView is held to: one np-long vector per
// process, max-merged with every RoundStart's AllIncs, raised by every
// RollbackNote and overwritten by a restore.
type denseIncs []int32

func (d denseIncs) adopt(vec []int32) {
	for r, inc := range vec {
		d[r] = max(d[r], inc)
	}
}

func (d denseIncs) at(r int) int32 {
	if d == nil {
		return 0
	}
	return d[r]
}

// TestIncViewMatchesDense drives incView and the dense reference with the
// same seeded random sequences of round launches, RoundStarts (in order,
// repeated, or late after a newer round's), RollbackNotes arriving ahead of
// or behind their round's RoundStart, and restores, and checks of(r) for
// every rank after every step, plus incView's own invariant: notes sorted
// by rank and strictly above the vector.
func TestIncViewMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		np := 2 + rng.Intn(40)
		cur := make([]int32, np)
		var vecs [][]int32 // vecs[k] is round k+1's AllIncs
		var rolled [][]int
		var v incView
		ref := make(denseIncs, np)
		for step := range 120 {
			var what string
			switch op := rng.Intn(10); {
			case op < 2 || len(vecs) == 0:
				// A round kills 1-3 ranks; its vector is the world's.
				var rb []int
				for range 1 + rng.Intn(3) {
					r := rng.Intn(np)
					cur[r]++
					rb = append(rb, r)
				}
				vecs = append(vecs, append([]int32(nil), cur...))
				rolled = append(rolled, rb)
				what = fmt.Sprintf("launch round %d", len(vecs))
			case op < 5:
				k := pickRound(rng, len(vecs))
				v.adopt(k+1, vecs[k])
				ref.adopt(vecs[k])
				what = fmt.Sprintf("RoundStart %d", k+1)
			case op < 9:
				k := pickRound(rng, len(vecs))
				q := rolled[k][rng.Intn(len(rolled[k]))]
				v.raise(q, vecs[k][q])
				ref[q] = max(ref[q], vecs[k][q])
				what = fmt.Sprintf("RollbackNote of round %d from %d", k+1, q)
			default:
				k := pickRound(rng, len(vecs))
				v.reset(k+1, vecs[k])
				copy(ref, vecs[k])
				what = fmt.Sprintf("restore in round %d", k+1)
			}
			for r := range np {
				if got, want := v.of(r), ref[r]; got != want {
					t.Fatalf("seed %d step %d (%s): of(%d) = %d, dense view %d", seed, step, what, r, got, want)
				}
			}
			for i, n := range v.ahead {
				if i > 0 && v.ahead[i-1].rank >= n.rank {
					t.Fatalf("seed %d step %d (%s): notes out of order: %+v", seed, step, what, v.ahead)
				}
				if n.inc <= denseIncs(v.vec).at(int(n.rank)) {
					t.Fatalf("seed %d step %d (%s): note %+v not ahead of the round-%d vector", seed, step, what, n, v.round)
				}
			}
		}
	}
}

// pickRound picks a launched round, mostly the newest two so that notes
// and RoundStarts race, sometimes any older one (a late delivery).
func pickRound(rng *rand.Rand, n int) int {
	if n > 2 && rng.Intn(4) == 0 {
		return rng.Intn(n)
	}
	return max(0, n-1-rng.Intn(2))
}

// BenchmarkNewEngine measures what a process's HydEE engine costs to build
// at np = 1024 and 16384, 32-rank clusters. It must not grow with np.
func BenchmarkNewEngine(b *testing.B) {
	for _, np := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			assign := make([]int, np)
			for r := range assign {
				assign[r] = r / 32
			}
			px := newFakeProc(assign)
			var prot rollback.Protocol = New()
			b.ReportAllocs()
			for b.Loop() {
				prot.NewEngine(np/2, px)
			}
		})
	}
}

package core_test

import (
	"os"
	"testing"

	"hydee/internal/failure"
	"hydee/internal/trace"
)

// TestDebugDivergence dumps the first diverging event between a clean and a
// recovered run (HYDEE_DEBUG only).
func TestDebugDivergence(t *testing.T) {
	if os.Getenv("HYDEE_DEBUG") == "" {
		t.Skip("set HYDEE_DEBUG=1")
	}
	seed := int64(1)
	_, recClean := runDAG(t, seed, 8, nil, 3)
	sched := []failure.Event{{
		Ranks: []int{4},
		When:  failure.Trigger{AfterCheckpoints: 1},
	}}
	_, recFail := runDAG(t, seed, 8, sched, 3)

	evA, evB := recClean.Events(), recFail.Events()
	for p := 0; p < propNP; p++ {
		// Compare delivery multisets per (src, date): digests must match.
		type key struct {
			src  int
			date int64
		}
		a := map[key][]uint64{}
		for _, ev := range evA[p] {
			if ev.Op == trace.Deliver {
				k := key{ev.Peer, ev.MsgDate}
				a[k] = append(a[k], ev.Digest)
			}
		}
		b := map[key][]uint64{}
		for _, ev := range evB[p] {
			if ev.Op == trace.Deliver {
				k := key{ev.Peer, ev.MsgDate}
				b[k] = append(b[k], ev.Digest)
			}
		}
		for k, da := range a {
			db := b[k]
			if len(da) != len(db) {
				t.Errorf("proc %d: delivery (src %d, date %d): clean %d times, failed %d times", p, k.src, k.date, len(da), len(db))
				continue
			}
			if len(da) == 1 && da[0] != db[0] {
				t.Errorf("proc %d: delivery (src %d, date %d): digest %x vs %x", p, k.src, k.date, da[0], db[0])
			}
		}
		for k, db := range b {
			if _, ok := a[k]; !ok {
				t.Errorf("proc %d: extra delivery in failed run (src %d, date %d) x%d", p, k.src, k.date, len(db))
			}
		}
	}
}

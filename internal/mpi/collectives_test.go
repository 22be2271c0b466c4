package mpi_test

import (
	"fmt"
	"testing"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/rollback"
)

func failAfterCkpt(rank, n int) []failure.Event {
	return []failure.Event{{Ranks: []int{rank}, When: failure.Trigger{AfterCheckpoints: n}}}
}

// runColl executes a program on np ranks under HydEE with two clusters so
// collectives cross cluster boundaries (their legs are protocol-visible).
func runColl(t *testing.T, np int, prog mpi.Program) *mpi.Result {
	t.Helper()
	assign := make([]int, np)
	for i := range assign {
		assign[i] = i * 2 / np
	}
	res, err := mpi.Run(mpi.Config{
		NP:       np,
		Topo:     rollback.NewTopology(assign),
		Protocol: core.New(),
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBarrier(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8} {
		res := runColl(t, np, func(c *mpi.Comm) error {
			for i := 0; i < 3; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			c.SetResult(true)
			return nil
		})
		for r := 0; r < np; r++ {
			if res.Results[r] != true {
				t.Fatalf("np=%d: rank %d did not pass the barrier", np, r)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, np := range []int{1, 2, 3, 6, 7, 8} {
		for root := 0; root < np; root += 2 {
			res := runColl(t, np, func(c *mpi.Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte(fmt.Sprintf("root=%d", root))
				}
				got, err := c.Bcast(root, data, 0)
				if err != nil {
					return err
				}
				c.SetResult(string(got))
				return nil
			})
			want := fmt.Sprintf("root=%d", root)
			for r := 0; r < np; r++ {
				if res.Results[r] != want {
					t.Fatalf("np=%d root=%d: rank %d got %q", np, root, r, res.Results[r])
				}
			}
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, np := range []int{1, 2, 4, 5, 8} {
		// Sum of ranks 0..np-1 and max.
		wantSum := float64(np*(np-1)) / 2
		res := runColl(t, np, func(c *mpi.Comm) error {
			v := []float64{float64(c.Rank()), float64(c.Rank())}
			sum, err := c.Reduce(0, []float64{v[0]}, mpi.OpSum, 0)
			if err != nil {
				return err
			}
			all, err := c.Allreduce([]float64{v[1]}, mpi.OpMax, 0)
			if err != nil {
				return err
			}
			mn, err := c.Allreduce([]float64{v[0]}, mpi.OpMin, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				c.SetResult([3]float64{sum[0], all[0], mn[0]})
			} else {
				c.SetResult([3]float64{-1, all[0], mn[0]})
			}
			return nil
		})
		got := res.Results[0].([3]float64)
		if got[0] != wantSum {
			t.Fatalf("np=%d: reduce sum %v, want %v", np, got[0], wantSum)
		}
		for r := 0; r < np; r++ {
			g := res.Results[r].([3]float64)
			if g[1] != float64(np-1) || g[2] != 0 {
				t.Fatalf("np=%d rank %d: allreduce max/min %v", np, r, g)
			}
		}
	}
}

func TestAllgather(t *testing.T) {
	np := 6
	res := runColl(t, np, func(c *mpi.Comm) error {
		out, err := c.Allgather([]byte{byte(c.Rank() + 100)}, 0)
		if err != nil {
			return err
		}
		s := ""
		for _, b := range out {
			s += fmt.Sprint(int(b[0]) - 100)
		}
		c.SetResult(s)
		return nil
	})
	for r := 0; r < np; r++ {
		if res.Results[r] != "012345" {
			t.Fatalf("rank %d allgather %q", r, res.Results[r])
		}
	}
}

func TestAlltoall(t *testing.T) {
	np := 5
	res := runColl(t, np, func(c *mpi.Comm) error {
		blocks := make([][]byte, np)
		for d := range blocks {
			blocks[d] = []byte{byte(c.Rank()), byte(d)}
		}
		got, err := c.Alltoall(blocks, 0)
		if err != nil {
			return err
		}
		// got[s] must be {s, myrank}.
		for s, b := range got {
			if int(b[0]) != s || int(b[1]) != c.Rank() {
				return fmt.Errorf("rank %d: block from %d is %v", c.Rank(), s, b)
			}
		}
		c.SetResult(true)
		return nil
	})
	for r := 0; r < np; r++ {
		if res.Results[r] != true {
			t.Fatalf("rank %d alltoall failed", r)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	np := 6
	res := runColl(t, np, func(c *mpi.Comm) error {
		got, err := c.Gather(2, []byte{byte(c.Rank() * 3)}, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for r := 0; r < np; r++ {
				if int(got[r][0]) != r*3 {
					return fmt.Errorf("gather slot %d = %v", r, got[r])
				}
			}
		}
		var blocks [][]byte
		if c.Rank() == 2 {
			blocks = make([][]byte, np)
			for r := range blocks {
				blocks[r] = []byte{byte(r * 5)}
			}
		}
		mine, err := c.Scatter(2, blocks, 0)
		if err != nil {
			return err
		}
		c.SetResult(int(mine[0]))
		return nil
	})
	for r := 0; r < np; r++ {
		if res.Results[r] != r*5 {
			t.Fatalf("rank %d scatter got %v", r, res.Results[r])
		}
	}
}

func TestCollectivesSurviveFailure(t *testing.T) {
	// An allreduce-heavy program recovers correctly: collective legs are
	// logged/replayed like any message, and the restored collSeq keeps
	// re-executed collectives aligned with survivors.
	np := 8
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1}
	prog := func(c *mpi.Comm) error {
		st := &struct {
			Iter int
			Acc  float64
		}{Acc: float64(c.Rank())}
		if _, err := c.Restore(st); err != nil {
			return err
		}
		for st.Iter < 10 {
			out, err := c.Allreduce([]float64{st.Acc}, mpi.OpSum, 0)
			if err != nil {
				return err
			}
			st.Acc = st.Acc/2 + out[0]/16
			st.Iter++
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
		c.SetResult(st.Acc)
		return nil
	}
	run := func(failures []failure.Event) *mpi.Result {
		res, err := mpi.Run(mpi.Config{
			NP: np, Topo: rollback.NewTopology(assign), Protocol: core.New(),
			CheckpointEvery: 3, Failures: failures,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	failed := run(failAfterCkpt(6, 1))
	for r := 0; r < np; r++ {
		if clean.Results[r] != failed.Results[r] {
			t.Fatalf("rank %d: %v vs %v", r, clean.Results[r], failed.Results[r])
		}
	}
}

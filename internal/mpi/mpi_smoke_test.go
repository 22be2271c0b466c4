package mpi_test

import (
	"fmt"
	"testing"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// ringState is a simple checkpointable iterative program: each iteration,
// rank r sends its accumulator to (r+1)%np, receives from (r-1+np)%np, and
// folds the received value in. Fully send-deterministic.
type ringState struct {
	Iter int
	Acc  int64
}

func ringProgram(iters int) mpi.Program {
	return func(c *mpi.Comm) error {
		st := &ringState{Acc: int64(c.Rank() + 1)}
		if _, err := c.Restore(st); err != nil {
			return err
		}
		np := c.Size()
		next := (c.Rank() + 1) % np
		prev := (c.Rank() - 1 + np) % np
		for st.Iter < iters {
			payload := fmt.Sprintf("%d", st.Acc)
			if err := c.Send(next, 7, []byte(payload)); err != nil {
				return err
			}
			got, _, err := c.Recv(prev, 7)
			if err != nil {
				return err
			}
			var v int64
			fmt.Sscanf(string(got), "%d", &v)
			st.Acc = st.Acc*31 + v
			if err := c.Compute(10 * vtime.Microsecond); err != nil {
				return err
			}
			// The state must describe the next iteration before the
			// checkpoint point (see Comm.Checkpoint).
			st.Iter++
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
		c.SetResult(st.Acc)
		return nil
	}
}

func ringResults(t *testing.T, res *mpi.Result) []int64 {
	t.Helper()
	out := make([]int64, len(res.Results))
	for i, v := range res.Results {
		acc, ok := v.(int64)
		if !ok {
			t.Fatalf("rank %d: missing result (%T)", i, v)
		}
		out[i] = acc
	}
	return out
}

func TestRingNativeFailureFree(t *testing.T) {
	res, err := mpi.Run(mpi.Config{
		NP:       6,
		Model:    netmodel.Myrinet10G(),
		Protocol: rollback.Native(),
	}, ringProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan not positive: %v", res.Makespan)
	}
	accs := ringResults(t, res)
	if accs[0] == 0 {
		t.Fatal("rank 0 produced zero accumulator")
	}
	if res.Totals.AppSends != 6*10 {
		t.Fatalf("expected 60 sends, got %d", res.Totals.AppSends)
	}
}

func TestRingHydEEFailureFreeMatchesNative(t *testing.T) {
	native, err := mpi.Run(mpi.Config{
		NP: 6, Protocol: rollback.Native(),
	}, ringProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	hydee, err := mpi.Run(mpi.Config{
		NP: 6, Topo: topo, Protocol: core.New(),
		CheckpointEvery: 3,
	}, ringProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	na, hy := ringResults(t, native), ringResults(t, hydee)
	for r := range na {
		if na[r] != hy[r] {
			t.Fatalf("rank %d: native acc %d != hydee acc %d", r, na[r], hy[r])
		}
	}
	if hydee.Totals.LoggedMsgs == 0 {
		t.Fatal("hydee logged no inter-cluster messages")
	}
	if hydee.Totals.LoggedMsgs >= hydee.Totals.AppSends {
		t.Fatalf("hydee logged all messages (%d of %d); clustering ineffective",
			hydee.Totals.LoggedMsgs, hydee.Totals.AppSends)
	}
}

func TestRingHydEERecoversFromFailure(t *testing.T) {
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	run := func(sched []failure.Event) []int64 {
		t.Helper()
		res, err := mpi.Run(mpi.Config{
			NP: 6, Topo: topo, Protocol: core.New(),
			CheckpointEvery: 3,
			Failures:        sched,
		}, ringProgram(12))
		if err != nil {
			t.Fatal(err)
		}
		if sched != nil && len(res.Rounds) != len(sched) {
			t.Fatalf("expected %d recovery rounds, got %d", len(sched), len(res.Rounds))
		}
		return ringResults(t, res)
	}
	clean := run(nil)
	failed := run([]failure.Event{{
		Ranks: []int{2},
		When:  failure.Trigger{AfterCheckpoints: 2},
	}})
	for r := range clean {
		if clean[r] != failed[r] {
			t.Fatalf("rank %d: failure-free acc %d != recovered acc %d", r, clean[r], failed[r])
		}
	}
}

func TestRingHydEEConcurrentClusterFailures(t *testing.T) {
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	run := func(sched []failure.Event) []int64 {
		t.Helper()
		res, err := mpi.Run(mpi.Config{
			NP: 6, Topo: topo, Protocol: core.New(),
			CheckpointEvery: 4,
			Failures:        sched,
		}, ringProgram(12))
		if err != nil {
			t.Fatal(err)
		}
		return ringResults(t, res)
	}
	clean := run(nil)
	failed := run([]failure.Event{{
		Ranks: []int{0, 5}, // two clusters fail concurrently
		When:  failure.Trigger{AfterCheckpoints: 1},
	}})
	for r := range clean {
		if clean[r] != failed[r] {
			t.Fatalf("rank %d: failure-free acc %d != recovered acc %d", r, clean[r], failed[r])
		}
	}
}

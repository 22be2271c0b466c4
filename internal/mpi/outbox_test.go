package mpi_test

// A process's sends reach the delivery plane at its next plane operation
// (a receive or a turn) or, at the latest, just before it reports to the
// supervisor. These tests put failures right after
// bursts of sends and hold every virtual output to one value whatever the
// scheduling.

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// alltoallSteps runs iters steps of an all-to-all exchange: each rank
// sends every other rank a block derived from its accumulator through the
// runtime's pairwise Alltoall, folds in what it receives, computes and
// checkpoints.
func alltoallSteps(iters int) mpi.Program {
	return func(c *mpi.Comm) error {
		st := &struct {
			Iter int
			Acc  uint64
		}{Acc: uint64(c.Rank()) + 1}
		if _, err := c.Restore(st); err != nil {
			return err
		}
		np := c.Size()
		for st.Iter < iters {
			blocks := make([][]byte, np)
			for d := range blocks {
				blocks[d] = binary.LittleEndian.AppendUint64(nil, st.Acc*uint64(d+1))
			}
			got, err := c.Alltoall(blocks, 2<<10)
			if err != nil {
				return err
			}
			for _, b := range got {
				st.Acc = st.Acc*0x9e3779b97f4a7c15 + binary.LittleEndian.Uint64(b)
			}
			if err := c.Compute(3 * vtime.Microsecond); err != nil {
				return err
			}
			st.Iter++
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
		c.SetResult(st.Acc)
		return nil
	}
}

// TestOutboxFlushedBeforeFailureReproducible runs two failures that land
// right after a burst, each at GOMAXPROCS 1 and twice at 4, and requires
// identical Results (bar the plane's host counters) whose digests equal
// the failure-free run's:
//
//   - HydEE, np = 64 in clusters of 8: rank 21 fails after 100 sends, in
//     the middle of the second all-to-all, with its last send still
//     buffered when it reports the failure;
//   - the coordinated protocol, np = 64: rank 37 fails right after its
//     first checkpoint, while the 63-marker fan-outs of the checkpoint
//     wave are in flight.
func TestOutboxFlushedBeforeFailureReproducible(t *testing.T) {
	const np, iters = 64, 3
	assign := make([]int, np)
	for r := range assign {
		assign[r] = r / 8
	}
	cases := []struct {
		name   string
		prot   rollback.Protocol
		topo   *rollback.Topology
		fail   failure.Event
		rolled int
	}{
		{"alltoall-aftersends", core.New(), rollback.NewTopology(assign),
			failure.Event{Ranks: []int{21}, When: failure.Trigger{AfterSends: 100}}, 8},
		{"marker-fanout", rollback.Coordinated(), rollback.SingleCluster(np),
			failure.Event{Ranks: []int{37}, When: failure.Trigger{AfterCheckpoints: 1}}, np},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(procs int, fail bool) *mpi.Result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := mpi.Config{
					NP: np, Topo: c.topo, Protocol: c.prot, Model: netmodel.Myrinet10G(),
					CheckpointEvery: 1,
				}
				if fail {
					cfg.Failures = []failure.Event{c.fail}
				}
				res, err := mpi.Run(cfg, alltoallSteps(iters))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return virtualOnly(res)
			}
			ref := run(1, true)
			if len(ref.Rounds) != 1 || ref.Rounds[0].RolledBack != c.rolled {
				t.Fatalf("rounds %+v, want one rolling back %d ranks", ref.Rounds, c.rolled)
			}
			if clean := run(4, false); !reflect.DeepEqual(ref.Results, clean.Results) {
				t.Errorf("recovered digests differ from the failure-free run's")
			}
			for i := 0; i < 2; i++ {
				if res := run(4, true); !reflect.DeepEqual(res, ref) {
					t.Errorf("GOMAXPROCS=4 run %d differs from GOMAXPROCS=1:\n  %+v\n  %+v", i, res, ref)
				}
			}
		})
	}
}

package mpi_test

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

func TestConfigValidation(t *testing.T) {
	if _, err := mpi.Run(mpi.Config{NP: 0}, func(c *mpi.Comm) error { return nil }); err == nil {
		t.Fatal("accepted NP=0")
	}
	topo := rollback.NewTopology([]int{0, 0})
	if _, err := mpi.Run(mpi.Config{NP: 3, Topo: topo}, func(c *mpi.Comm) error { return nil }); err == nil {
		t.Fatal("accepted mismatched topology")
	}
}

func TestProgramErrorIsFatal(t *testing.T) {
	boom := errors.New("boom")
	_, err := mpi.Run(mpi.Config{NP: 2}, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, _, err := c.Recv(1, 1) // would block forever
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("fatal error not propagated: %v", err)
	}
}

func TestNativeCannotTolerateFailures(t *testing.T) {
	_, err := mpi.Run(mpi.Config{
		NP:       2,
		Failures: []failure.Event{{Ranks: []int{0}, When: failure.Trigger{AfterSends: 1}}},
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("x")); err != nil {
				return err
			}
			if err := c.Send(1, 1, []byte("y")); err != nil {
				return err
			}
		} else {
			for i := 0; i < 2; i++ {
				if _, _, err := c.Recv(0, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "cannot tolerate") {
		t.Fatalf("native run with failure should fail loudly, got %v", err)
	}
}

// TestWatchdogDetectsDeadlock: the run's driver loop is the deadlock
// watchdog — two ranks each waiting for a message nobody sends end the
// run with ErrDeadlock, the plane's counters and the supervise phase.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	_, err := mpi.Run(mpi.Config{NP: 2}, func(c *mpi.Comm) error {
		// Both ranks wait for a message nobody sends.
		_, _, err := c.Recv((c.Rank()+1)%2, 42)
		return err
	})
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("deadlock not detected: %v", err)
	}
	if !strings.Contains(err.Error(), "counters: {Mutations:") {
		t.Errorf("deadlock report lacks the plane counters: %v", err)
	}
	var re *mpi.RunError
	if !errors.As(err, &re) || re.Phase != mpi.PhaseSupervise {
		t.Fatalf("want *RunError in phase %q, got %#v", mpi.PhaseSupervise, err)
	}
}

// TestDeadlockReportedWithoutWatchdog: a deadlock is exact — no rank can
// run and the run is not over — so it is reported at once, with no
// wall-clock timer involved.
func TestDeadlockReportedWithoutWatchdog(t *testing.T) {
	start := time.Now()
	_, err := mpi.Run(mpi.Config{NP: 4}, func(c *mpi.Comm) error {
		_, _, err := c.Recv((c.Rank()+1)%c.Size(), 42)
		return err
	})
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("deadlock reported after %v, want under 1s", took)
	}
}

func TestSelfSendRejected(t *testing.T) {
	_, err := mpi.Run(mpi.Config{NP: 1}, func(c *mpi.Comm) error {
		return c.Send(0, 1, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "self-send") {
		t.Fatalf("self-send accepted: %v", err)
	}
}

func TestInvalidDestinationRejected(t *testing.T) {
	_, err := mpi.Run(mpi.Config{NP: 1}, func(c *mpi.Comm) error {
		return c.Send(7, 1, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("invalid destination accepted: %v", err)
	}
}

func TestWildcardReceive(t *testing.T) {
	res, err := mpi.Run(mpi.Config{NP: 4}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			sum := 0
			for i := 0; i < 3; i++ {
				data, st, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				sum += int(data[0]) + st.Tag
			}
			c.SetResult(sum)
			return nil
		}
		return c.Send(0, c.Rank()*10, []byte{byte(c.Rank())})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0] != (1+10)+(2+20)+(3+30) {
		t.Fatalf("wildcard sum %v", res.Results[0])
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	res, err := mpi.Run(mpi.Config{NP: 2}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			r1 := c.Isend(1, 1, []byte("a"))
			r2 := c.Isend(1, 2, []byte("b"))
			return mpi.WaitAll(r1, r2)
		}
		r1 := c.Irecv(0, 2)
		r2 := c.Irecv(0, 1)
		d1, _, err := r1.Wait()
		if err != nil {
			return err
		}
		d2, _, err := r2.Wait()
		if err != nil {
			return err
		}
		c.SetResult(string(d1) + string(d2))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[1] != "ba" {
		t.Fatalf("irecv got %v", res.Results[1])
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	res, err := mpi.Run(mpi.Config{
		NP:    2,
		Model: netmodel.Myrinet10G(),
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Compute(1 * vtime.Millisecond); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("x"))
		}
		_, _, err := c.Recv(0, 1)
		c.SetResult(int64(c.Now()))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver's clock must include sender compute + wire latency.
	got := res.Results[1].(int64)
	if got < int64(vtime.Millisecond) {
		t.Fatalf("receiver clock %v did not inherit sender time", got)
	}
	if res.Makespan < vtime.Time(vtime.Millisecond) {
		t.Fatalf("makespan %v too small", res.Makespan)
	}
}

// topoProc is the part of rollback.Proc that building an engine reads.
type topoProc struct {
	rollback.Proc
	topo *rollback.Topology
}

func (p topoProc) Topo() *rollback.Topology { return p.topo }

// TestCheckpointScopeAscending holds every built-in protocol to the
// CheckpointScope contract the runtime's capture searches by: ascending
// rank order, with the process itself in any scope that is not empty, and
// the same slice on every call. The clusters interleave, so a scope built
// cluster by cluster in some other order would show. Scopes must also be
// symmetric (r in s's scope iff s in r's), since a checkpoint wave counts
// its markers instead of naming their senders.
func TestCheckpointScopeAscending(t *testing.T) {
	assign := []int{2, 0, 1, 2, 0, 1, 1, 0, 2, 2}
	topo := rollback.NewTopology(assign)
	for _, prot := range []rollback.Protocol{core.New(), core.NewMLog(), rollback.Coordinated(), rollback.Native()} {
		scopes := make([][]int, len(assign))
		for r := range assign {
			e := prot.NewEngine(r, topoProc{topo: topo})
			scope := e.CheckpointScope()
			scopes[r] = scope
			if !slices.IsSorted(scope) {
				t.Errorf("%s rank %d: scope %v not ascending", prot.Name(), r, scope)
			}
			if _, ok := slices.BinarySearch(scope, r); len(scope) > 0 && !ok {
				t.Errorf("%s rank %d: scope %v lacks the rank", prot.Name(), r, scope)
			}
			if again := e.CheckpointScope(); len(scope) > 0 && &again[0] != &scope[0] {
				t.Errorf("%s rank %d: scope rebuilt on every call", prot.Name(), r)
			}
		}
		for r, scope := range scopes {
			for _, s := range scope {
				if _, ok := slices.BinarySearch(scopes[s], r); !ok {
					t.Errorf("%s: rank %d is in rank %d's scope %v, but not %d in %d's scope %v", prot.Name(), s, r, scope, r, s, scopes[s])
				}
			}
		}
	}
}

func TestCheckpointScheduleStagger(t *testing.T) {
	assign := []int{0, 0, 1, 1}
	run := func(stagger bool) *mpi.Result {
		res, err := mpi.Run(mpi.Config{
			NP: 4, Topo: rollback.NewTopology(assign), Protocol: core.New(),
			CheckpointEvery: 2, CheckpointStagger: stagger,
		}, func(c *mpi.Comm) error {
			st := &struct{ Iter int }{}
			if _, err := c.Restore(st); err != nil {
				return err
			}
			next := (c.Rank() + 1) % 4
			prev := (c.Rank() + 3) % 4
			for st.Iter < 6 {
				if err := c.Send(next, 1, []byte{1}); err != nil {
					return err
				}
				if _, _, err := c.Recv(prev, 1); err != nil {
					return err
				}
				st.Iter++
				if err := c.Checkpoint(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	stag := run(true)
	if plain.Totals.Checkpoints == 0 || stag.Totals.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	// Staggering changes the schedule but not the count per cluster much;
	// both must have checkpointed all 4 ranks.
	if plain.Totals.Checkpoints%4 != 0 {
		t.Fatalf("unaligned checkpoint count %d", plain.Totals.Checkpoints)
	}
}

func TestPairByteMatrix(t *testing.T) {
	res, err := mpi.Run(mpi.Config{NP: 3}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.SendW(2, 1, []byte{1}, 5000)
		}
		if c.Rank() == 2 {
			_, _, err := c.Recv(0, 1)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traffic) != 1 || res.Traffic[0].Src != 0 || res.Traffic[0].Dst != 2 ||
		res.Traffic[0].Bytes != 5000 || res.Traffic[0].Msgs != 1 {
		t.Fatalf("traffic edges wrong: %+v", res.Traffic)
	}
	// The plane's host-side counters ride along, outside the serialised form.
	if p := res.Plane; p.Delivered < 1 || p.Mutations < 1 || p.Served != p.Parks {
		t.Fatalf("plane counters not filled in: %+v", p)
	}
	if js, err := json.Marshal(res); err != nil || strings.Contains(string(js), "Plane") {
		t.Fatalf("scheduling-dependent plane counters reached the JSON form (err %v): %s", err, js)
	}
}

func TestFinishedProcessStillServesRecovery(t *testing.T) {
	// Rank 0 (cluster 0) finishes immediately after one send; cluster 1
	// then fails and needs rank 0's logged message replayed. The
	// lingering process must answer the rollback notification.
	assign := []int{0, 1}
	prog := func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("payload"))
		}
		st := &struct{ Stage int }{}
		if _, err := c.Restore(st); err != nil {
			return err
		}
		d, _, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		// The compute gives the failure trigger an interaction point
		// after the delivery (the plan fires once, pre-restart).
		if err := c.Compute(vtime.Microsecond); err != nil {
			return err
		}
		c.SetResult(string(d))
		return nil
	}
	res, err := mpi.Run(mpi.Config{
		NP: 2, Topo: rollback.NewTopology(assign), Protocol: core.New(),
		Failures: []failure.Event{{
			Ranks: []int{1},
			When:  failure.Trigger{AtVT: vtime.Time(1)},
		}},
		Model: netmodel.Myrinet10G(),
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[1] != "payload" {
		t.Fatalf("restarted rank got %v", res.Results[1])
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
}

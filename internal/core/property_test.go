package core_test

// Property tests for the correctness results of §IV, exercised on seeded
// random send-deterministic workloads with genuinely nondeterministic
// delivery interleavings (goroutine scheduling + wildcard receives).

import (
	"fmt"
	"testing"
	"testing/quick"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
)

const propNP = 9

var propTopo = []int{0, 0, 0, 1, 1, 1, 2, 2, 2}

func runDAG(t *testing.T, seed int64, rounds int, sched []failure.Event, ckptEvery int) (*mpi.Result, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder(propNP)
	res, err := mpi.Run(mpi.Config{
		NP:              propNP,
		Topo:            rollback.NewTopology(propTopo),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		Failures:        sched,
		Recorder:        rec,
		CheckpointEvery: ckptEvery,
	}, apps.RandomDAG(seed, rounds, 3, 4096))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, rec
}

// TestLemma1PhaseMonotone checks that phases never decrease along any
// happened-before edge (program order or message edge), over random
// workloads, with and without failures.
func TestLemma1PhaseMonotone(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, rec := runDAG(t, seed, 6, nil, 0)
		if err := trace.BuildHB(rec.Events()).CheckPhaseMonotone(); err != nil {
			t.Fatalf("seed %d failure-free: %v", seed, err)
		}
		sched := []failure.Event{{
			Ranks: []int{int(seed) % propNP},
			When:  failure.Trigger{AfterCheckpoints: 1},
		}}
		_, rec = runDAG(t, seed, 6, sched, 2)
		if err := trace.BuildHB(rec.Events()).CheckPhaseMonotone(); err != nil {
			t.Fatalf("seed %d with failure: %v", seed, err)
		}
	}
}

// TestLemma4SendDeterminism checks Definition 3 on the runtime: two
// executions with different (scheduler-driven) delivery interleavings
// produce the same per-process send sequence — same receivers, payloads,
// dates and phases.
func TestLemma4SendDeterminism(t *testing.T) {
	f := func(rawSeed uint16) bool {
		seed := int64(rawSeed%64) + 1
		_, recA := runDAG(t, seed, 5, nil, 0)
		_, recB := runDAG(t, seed, 5, nil, 0)
		for p := 0; p < propNP; p++ {
			a := trace.SendSequence(recA.Events(), p)
			b := trace.SendSequence(recB.Events(), p)
			if err := trace.EqualSendSeq(a, b); err != nil {
				t.Logf("seed %d proc %d: %v", seed, p, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma4UnderRecovery checks that a recovered execution emits exactly
// the failure-free send sequence: same content, same dates, same phases
// (Lemma 4 is what makes phase-ordered replay sound).
func TestLemma4UnderRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		resClean, recClean := runDAG(t, seed, 8, nil, 3)
		sched := []failure.Event{{
			Ranks: []int{4},
			When:  failure.Trigger{AfterCheckpoints: 1},
		}}
		resFail, recFail := runDAG(t, seed, 8, sched, 3)
		if len(resFail.Rounds) != 1 {
			t.Fatalf("seed %d: rounds %d", seed, len(resFail.Rounds))
		}
		for p := 0; p < propNP; p++ {
			a := trace.SendSequence(recClean.Events(), p)
			b := trace.SendSequence(recFail.Events(), p)
			if err := trace.EqualSendSeq(a, b); err != nil {
				t.Fatalf("seed %d proc %d: %v", seed, p, err)
			}
		}
		for p := 0; p < propNP; p++ {
			if resClean.Results[p] != resFail.Results[p] {
				t.Fatalf("seed %d: rank %d digest diverged", seed, p)
			}
		}
	}
}

// TestTheorem2OrphanAccounting checks the deadlock-freedom bookkeeping:
// every orphan reported to the recovery process is matched by exactly one
// suppressed re-send, and the recovery round drains completely.
func TestTheorem2OrphanAccounting(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sched := []failure.Event{{
			Ranks: []int{1},
			When:  failure.Trigger{AfterCheckpoints: 1},
		}}
		res, _ := runDAG(t, seed, 8, sched, 2)
		if len(res.Rounds) != 1 {
			t.Fatalf("seed %d: %d rounds", seed, len(res.Rounds))
		}
		if got, want := res.Totals.Suppressed, int64(res.Rounds[0].Orphans); got != want {
			t.Fatalf("seed %d: %d suppressions for %d orphans", seed, got, want)
		}
	}
}

// TestMasterWorkerIsNotSendDeterministic is the negative control: the one
// pattern the model excludes (§II-B) must actually violate Definition 3 on
// our runtime — otherwise the determinism tests above prove nothing.
func TestMasterWorkerIsNotSendDeterministic(t *testing.T) {
	run := func() string {
		res, err := mpi.Run(mpi.Config{
			NP:       5,
			Protocol: rollback.Native(),
			Model:    netmodel.Myrinet10G(),
		}, apps.MasterWorker(60))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Results[0]) // master's completion order
	}
	first := run()
	for attempt := 0; attempt < 8; attempt++ {
		if run() != first {
			return // orders differ: not send-deterministic, as expected
		}
	}
	t.Skip("scheduler produced identical completion orders 8 times; cannot demonstrate nondeterminism on this host")
}

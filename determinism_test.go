package hydee

// Determinism regression tests for the virtual-time delivery plane: every
// makespan — not just every digest — must be reproducible run-to-run, for
// every protocol, with checkpoint/recovery control traffic in flight. These
// are the experiments the paper's numbers come from (E4, F6, E5); if one of
// them turns scheduling-dependent again, the repository's results stop
// being citable.

import (
	"context"
	"reflect"
	"testing"
)

// runTwice executes the spec twice and fails unless the summaries are
// indistinguishable — makespan, recovery stats, store stats, digests,
// traffic matrix.
func runTwice(t *testing.T, s ExperimentSpec) *ExperimentSummary {
	t.Helper()
	a, err := runExperiment(context.Background(), s)
	if err != nil {
		t.Fatalf("%s/%s run 1: %v", s.Kernel.Name, s.Proto, err)
	}
	b, err := runExperiment(context.Background(), s)
	if err != nil {
		t.Fatalf("%s/%s run 2: %v", s.Kernel.Name, s.Proto, err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("%s/%s: makespan not reproducible: %v vs %v", s.Kernel.Name, s.Proto, a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Errorf("%s/%s: recovery stats not reproducible:\n  %+v\n  %+v", s.Kernel.Name, s.Proto, a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s/%s: summaries differ beyond makespan/rounds:\n  %+v\n  %+v", s.Kernel.Name, s.Proto, a, b)
	}
	return a
}

// clusterKernel traces the kernel failure-free at np ranks and
// partitions its communication graph.
func clusterKernel(t *testing.T, k Kernel, np int) ClusterResult {
	t.Helper()
	sum, err := RunExperiment(ExperimentSpec{Kernel: k, Params: KernelParams{NP: np, Iters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return Cluster(CommGraphFromPairBytes(np, sum.PairBytes), DefaultClusterOptions())
}

func cgAssign(t *testing.T) []int {
	t.Helper()
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	return clusterKernel(t, k, 16).Assign
}

// TestE4MakespansReproducible runs each E4 containment scenario — one
// failure under coord, mlog and hydee — twice and asserts byte-identical
// makespans, recovery stats and digests.
func TestE4MakespansReproducible(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	for _, proto := range []ExperimentProto{ProtoCoord, ProtoMLog, ProtoHydEE} {
		sum := runTwice(t, ExperimentSpec{
			Kernel: k, Params: KernelParams{NP: 16, Iters: 8},
			Proto: proto, Assign: assign, CheckpointEvery: 3,
			Failures: []FailureEvent{{
				Ranks: []int{8},
				When:  FailureTrigger{AfterCheckpoints: 1},
			}},
		})
		if len(sum.Rounds) != 1 {
			t.Errorf("%s: expected 1 recovery round, got %d", proto, len(sum.Rounds))
		}
	}
}

// TestF6KernelMakespanReproducible runs one Figure-6 kernel failure-free
// with coordinated checkpoints (markers plus store traffic are exactly the
// out-of-band control flows that used to vary by scheduling) twice per
// protocol and asserts identical summaries.
func TestF6KernelMakespanReproducible(t *testing.T) {
	k, err := KernelByName("mg")
	if err != nil {
		t.Fatal(err)
	}
	res := clusterKernel(t, k, 16)
	for _, proto := range []ExperimentProto{ProtoNative, ProtoMLog, ProtoHydEE} {
		runTwice(t, ExperimentSpec{
			Kernel: k, Params: KernelParams{NP: 16, Iters: 6},
			Proto: proto, Assign: res.Assign, CheckpointEvery: 2,
		})
	}
}

// TestE5StoreContentionReproducible covers the stable-storage admission
// order: with a shared-bandwidth store, concurrent checkpoint writes queue
// behind each other, and the queue build-up (MaxQueue, end-of-write times,
// makespan) must not depend on which goroutine reached the store first.
func TestE5StoreContentionReproducible(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	for _, stagger := range []bool{false, true} {
		runTwice(t, ExperimentSpec{
			Kernel: k, Params: KernelParams{NP: 16, Iters: 6},
			Proto: ProtoHydEE, Assign: assign,
			CheckpointEvery: 2, Stagger: stagger,
			NewStore: StoreSpec{Spec: "mem", BPS: 2e9}.New,
		})
	}
}

// TestMidWaveFailureReproducible is the kill-fence regression: the failure
// fires right after the victim's own checkpoint write completes, while its
// scope peers' writes are still queued on the shared-bandwidth store — the
// configuration whose restored sequence (and everything downstream) used to
// depend on the real-time race between the kill and the queued saves. With
// the three-step virtual-time kill protocol (declare at the detection
// fence, drain, then kill) every observable must be byte-identical
// run-to-run for each protocol.
func TestMidWaveFailureReproducible(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	for _, proto := range []ExperimentProto{ProtoCoord, ProtoMLog, ProtoHydEE} {
		sum := runTwice(t, ExperimentSpec{
			Kernel: k, Params: KernelParams{NP: 16, Iters: 8},
			Proto: proto, Assign: assign, CheckpointEvery: 3,
			NewStore: StoreSpec{Spec: "mem", BPS: 2e9}.New,
			Failures: []FailureEvent{{
				Ranks: []int{8},
				When:  FailureTrigger{AfterCheckpoints: 1},
			}},
		})
		if len(sum.Rounds) != 1 {
			t.Errorf("%s: expected 1 recovery round, got %d", proto, len(sum.Rounds))
		}
	}
}

// TestRunAllByteStableAcrossParallelism sweeps failure and checkpoint specs
// — the runs whose makespans used to vary — through RunExperiments at different
// parallelism levels and asserts the summaries are byte-identical.
func TestRunAllByteStableAcrossParallelism(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	mkSpecs := func() []ExperimentSpec {
		var specs []ExperimentSpec
		for _, proto := range []ExperimentProto{ProtoCoord, ProtoMLog, ProtoHydEE} {
			specs = append(specs, ExperimentSpec{
				Kernel: k, Params: KernelParams{NP: 16, Iters: 6},
				Proto: proto, Assign: assign, CheckpointEvery: 2,
				Failures: []FailureEvent{{
					Ranks: []int{8},
					When:  FailureTrigger{AfterCheckpoints: 1},
				}},
			})
		}
		return specs
	}
	serial, err := RunExperiments(context.Background(), mkSpecs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExperiments(context.Background(), mkSpecs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("spec %d: sweep output not byte-stable across parallelism:\n  %+v\n  %+v",
				i, serial[i], parallel[i])
		}
	}
}

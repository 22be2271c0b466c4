package apps_test

import (
	"testing"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
)

func runKernel(t *testing.T, k apps.Kernel, np, iters int, prot rollback.Protocol,
	topo *rollback.Topology, sched []failure.Event, ckpt int, rec *trace.Recorder) *mpi.Result {
	t.Helper()
	prog, err := k.Make(apps.Params{NP: np, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(mpi.Config{
		NP:              np,
		Model:           netmodel.Myrinet10G(),
		Topo:            topo,
		Protocol:        prot,
		Failures:        sched,
		CheckpointEvery: ckpt,
		Recorder:        rec,
	}, prog)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, k := range apps.Registry() {
		names[k.Name] = true
		if k.ClassIters <= 0 || k.BytesPerRankIter <= 0 {
			t.Errorf("%s: missing class-D calibration", k.Name)
		}
	}
	for _, want := range []string{"bt", "cg", "ft", "lu", "mg", "sp"} {
		if !names[want] {
			t.Errorf("kernel %s missing from registry", want)
		}
	}
	if _, err := apps.Get("cg"); err != nil {
		t.Error(err)
	}
	// Lookups ignore letter case, as model and protocol lookups do.
	if k, err := apps.Get("CG"); err != nil || k.Name != "cg" {
		t.Errorf("Get(%q) = %q, %v", "CG", k.Name, err)
	}
	if _, err := apps.Get("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestKernelsRunFailureFree exercises every kernel at a small scale and
// checks determinism: two runs produce identical digests.
func TestKernelsRunFailureFree(t *testing.T) {
	for _, k := range apps.Registry() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			a := runKernel(t, k, 16, 2, rollback.Native(), nil, nil, 0, nil)
			b := runKernel(t, k, 16, 2, rollback.Native(), nil, nil, 0, nil)
			for r := 0; r < 16; r++ {
				if a.Results[r] == nil {
					t.Fatalf("rank %d produced no digest", r)
				}
				if a.Results[r] != b.Results[r] {
					t.Fatalf("rank %d digest differs across identical runs", r)
				}
			}
			if a.Totals.AppSends == 0 {
				t.Fatal("kernel sent nothing")
			}
		})
	}
}

// TestKernelsAreSendDeterministic checks Definition 3 on every kernel: the
// send fingerprints (receiver, tag, size, payload, date, phase) of two runs
// are identical.
func TestKernelsAreSendDeterministic(t *testing.T) {
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	for _, k := range apps.Registry() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			topo := rollback.NewTopology(assign)
			recA := trace.NewRecorder(16)
			runKernel(t, k, 16, 2, core.New(), topo, nil, 0, recA)
			recB := trace.NewRecorder(16)
			runKernel(t, k, 16, 2, core.New(), topo, nil, 0, recB)
			for p := 0; p < 16; p++ {
				a := trace.SendSequence(recA.Events(), p)
				b := trace.SendSequence(recB.Events(), p)
				if err := trace.EqualSendSeq(a, b); err != nil {
					t.Fatalf("proc %d: %v", p, err)
				}
			}
			hb := trace.BuildHB(recA.Events())
			if err := hb.CheckPhaseMonotone(); err != nil {
				t.Fatalf("Lemma 1 on %s: %v", k.Name, err)
			}
			if un := hb.UnmatchedDelivers(); len(un) > 0 {
				t.Fatalf("%s: %d deliveries without a recorded send, first %+v", k.Name, len(un), un[0])
			}
		})
	}
}

// TestKernelsRecoverFromFailure injects one failure per kernel under HydEE
// and validates the recovered digests against the failure-free run.
func TestKernelsRecoverFromFailure(t *testing.T) {
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	for _, k := range apps.Registry() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			topo := rollback.NewTopology(assign)
			clean := runKernel(t, k, 16, 6, core.New(), topo, nil, 2, nil)
			sched := []failure.Event{{
				Ranks: []int{6},
				When:  failure.Trigger{AfterCheckpoints: 1},
			}}
			failed := runKernel(t, k, 16, 6, core.New(), topo, sched, 2, nil)
			if len(failed.Rounds) != 1 {
				t.Fatalf("rounds %d", len(failed.Rounds))
			}
			if failed.Rounds[0].RolledBack != 4 {
				t.Fatalf("rolled back %d, want cluster of 4", failed.Rounds[0].RolledBack)
			}
			for r := 0; r < 16; r++ {
				if clean.Results[r] != failed.Results[r] {
					t.Fatalf("rank %d diverged after recovery", r)
				}
			}
		})
	}
}

func TestClassDVolumeCalibration(t *testing.T) {
	// The modeled per-iteration volume of each kernel must extrapolate to
	// the right order of magnitude of the paper's Table I totals (256
	// ranks, class D): BT 791, CG 2318, FT 860, LU 337, MG 66, SP 1446 GB.
	want := map[string]float64{
		"bt": 791, "cg": 2318, "ft": 860, "lu": 337, "mg": 66, "sp": 1446,
	}
	for _, k := range apps.Registry() {
		gotGB := k.BytesPerRankIter * 256 * float64(k.ClassIters) / 1e9
		w := want[k.Name]
		if gotGB < w*0.7 || gotGB > w*1.3 {
			t.Errorf("%s: calibrated volume %.0f GB, paper %.0f GB", k.Name, gotGB, w)
		}
	}
}

func TestRingAndStencilProgramsRecover(t *testing.T) {
	topo := rollback.NewTopology([]int{0, 0, 1, 1, 2, 2})
	for name, prog := range map[string]mpi.Program{
		"ring":    apps.Ring(8, 1024),
		"stencil": apps.Stencil2D(8, 2048),
	} {
		run := func(sched []failure.Event) *mpi.Result {
			res, err := mpi.Run(mpi.Config{
				NP: 6, Topo: topo, Protocol: core.New(),
				CheckpointEvery: 3, Failures: sched,
			}, prog)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		clean := run(nil)
		failed := run([]failure.Event{{
			Ranks: []int{1}, When: failure.Trigger{AfterCheckpoints: 1},
		}})
		for r := 0; r < 6; r++ {
			if clean.Results[r] != failed.Results[r] {
				t.Fatalf("%s rank %d diverged", name, r)
			}
		}
	}
}

func TestGridFactorizations(t *testing.T) {
	// Kernels must work at odd process counts too.
	for _, np := range []int{2, 6, 12, 18} {
		for _, k := range apps.Registry() {
			res := runKernel(t, k, np, 1, rollback.Native(), nil, nil, 0, nil)
			if res.Totals.AppSends == 0 && np > 1 {
				t.Errorf("%s at np=%d sent nothing", k.Name, np)
			}
		}
	}
}

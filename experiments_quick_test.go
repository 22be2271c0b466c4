package hydee

import (
	"context"
	"strings"
	"testing"
)

// TestTable1Quick runs the clustering pipeline at a reduced scale to keep
// the unit suite fast; the full 256-rank reproduction lives in the root
// experiment tests.
func TestTable1Quick(t *testing.T) {
	rows, err := Table1(context.Background(), 64, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-4s k=%-3d rollback=%6.2f%% logged=%6.2f%% (%.0f/%.0f GB)",
			r.App, r.K, r.RollbackPct, r.LoggedPct, r.LoggedGB, r.TotalGB)
		if r.K < 2 {
			t.Errorf("%s: clustering degenerated to %d cluster(s)", r.App, r.K)
		}
		if r.LoggedPct <= 0 || r.LoggedPct > 100 {
			t.Errorf("%s: logged pct out of range: %f", r.App, r.LoggedPct)
		}
	}
}

func TestFigure6Quick(t *testing.T) {
	clusterings, _, err := Clusterings(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure6(context.Background(), 16, 3, clusterings, nil, ProtoMLog, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-4s mlog=%.4f hydee=%.4f (logged %.1f%%)", r.App, r.MLogNorm, r.HydEENorm, r.HydEELoggedPct)
		if r.HydEENorm < 0.999 {
			t.Errorf("%s: hydee faster than native (%.4f) — model inconsistency", r.App, r.HydEENorm)
		}
		if r.MLogNorm+1e-9 < r.HydEENorm {
			t.Errorf("%s: full logging (%.4f) beat hydee (%.4f)", r.App, r.MLogNorm, r.HydEENorm)
		}
	}
}

func TestContainmentQuick(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	base := ExperimentSpec{
		Kernel: k, Params: KernelParams{NP: 16, Iters: 8}, Assign: clusterKernel(t, k, 16).Assign, CheckpointEvery: 3,
		Failures: []FailureEvent{{Ranks: []int{8}, When: FailureTrigger{AfterCheckpoints: 1}}},
	}
	rows, err := Containment(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	var coordPct, hydeePct float64
	for _, r := range rows {
		t.Logf("%-6s rolled=%6.2f%% recovery=%s overhead=%.2f%%", r.Proto, r.RolledBackPct, r.RecoveryVT, r.OverheadPct)
		switch r.Proto {
		case "coord":
			coordPct = r.RolledBackPct
		case "hydee":
			hydeePct = r.RolledBackPct
		}
	}
	if coordPct != 100 {
		t.Errorf("coordinated baseline should roll back 100%%, got %.1f%%", coordPct)
	}
	if hydeePct >= coordPct {
		t.Errorf("hydee (%.1f%%) did not contain the failure better than coord (%.1f%%)", hydeePct, coordPct)
	}
}

// TestContainmentNeedsOneRound holds Containment to its contract: a plan
// that opens no recovery round is an error, not a row of zeros.
func TestContainmentNeedsOneRound(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	base := ExperimentSpec{
		Kernel: k, Params: KernelParams{NP: 16, Iters: 4}, Assign: cgAssign(t), CheckpointEvery: 3,
		Failures: []FailureEvent{{Ranks: []int{8}, When: FailureTrigger{AfterCheckpoints: 100}}},
	}
	_, err = Containment(context.Background(), base)
	if err == nil || !strings.Contains(err.Error(), "expected 1 recovery round, got 0") {
		t.Fatalf("Containment with a plan that never fires: got %v, want the one-round error", err)
	}
}

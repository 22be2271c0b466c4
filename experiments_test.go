package hydee_test

// Full-scale reproduction tests: every table and figure of the paper's
// evaluation, run at the paper's 256-rank scale, with assertions on the
// shapes the paper reports (who wins, by roughly what factor, where the
// crossovers fall). EXPERIMENTS.md records paper-vs-measured values.

import (
	"context"
	"testing"

	"hydee"
)

// clusterKernel traces the kernel failure-free at np ranks and
// partitions its communication graph, as hydee-recover does.
func clusterKernel(t *testing.T, k hydee.Kernel, np int) hydee.ClusterResult {
	t.Helper()
	sum, err := hydee.RunExperiment(hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: np, Iters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return hydee.Cluster(hydee.CommGraphFromPairBytes(np, sum.PairBytes), hydee.DefaultClusterOptions())
}

// TestTable1Reproduction clusters the six kernels at 256 ranks and checks
// each row against the paper's Table I.
func TestTable1Reproduction(t *testing.T) {
	rows, err := hydee.Table1(context.Background(), 256, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper values: app -> {clusters, rollback%, logged%}.
	paper := map[string][3]float64{
		"bt": {5, 21.78, 18.09},
		"cg": {16, 6.25, 18.98},
		"ft": {2, 50.00, 50.19},
		"lu": {8, 12.50, 13.26},
		"mg": {4, 25.00, 19.63},
		"sp": {6, 18.56, 20.04},
	}
	for _, r := range rows {
		p := paper[r.App]
		t.Logf("%-3s clusters=%2d (paper %2.0f)  rollback=%6.2f%% (paper %5.2f%%)  logged=%6.2f%% (paper %5.2f%%)",
			r.App, r.K, p[0], r.RollbackPct, p[1], r.LoggedPct, p[2])
		// Cluster count within a factor of 2 of the paper's.
		if float64(r.K) < p[0]/2 || float64(r.K) > p[0]*2 {
			t.Errorf("%s: %d clusters, paper %v", r.App, r.K, p[0])
		}
		// Rollback fraction within 15 percentage points.
		if diff := r.RollbackPct - p[1]; diff > 15 || diff < -15 {
			t.Errorf("%s: rollback %.2f%%, paper %.2f%%", r.App, r.RollbackPct, p[1])
		}
		// The headline qualitative claims: FT is the pathological
		// all-to-all case at ~50%; everything else logs well under 25%.
		if r.App == "ft" {
			if r.LoggedPct < 45 || r.LoggedPct > 55 {
				t.Errorf("ft should log ~50%%, got %.2f%%", r.LoggedPct)
			}
		} else if r.LoggedPct > 25 {
			t.Errorf("%s logs %.2f%%, paper keeps all non-FT apps ~<=20%%", r.App, r.LoggedPct)
		}
	}
}

// TestFigure5Reproduction checks the NetPIPE sweep's shape: piggyback peaks
// where a plateau is crossed, equivalence of logging and no-logging, decay
// to ~zero overhead for large messages.
func TestFigure5Reproduction(t *testing.T) {
	rows, err := hydee.Figure5(context.Background(), nil, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	peaks := 0
	inPeak := false
	for _, r := range rows {
		if r.LatRedNoLogPct < worst {
			worst = r.LatRedNoLogPct
		}
		// Count distinct degradation peaks (> 4% worse than native).
		if r.LatRedNoLogPct < -4 {
			if !inPeak {
				peaks++
				inPeak = true
			}
		} else {
			inPeak = false
		}
		// Logging and no-logging must be near-equivalent everywhere
		// (overlapped memcpy, §V-C).
		if d := r.LatRedNoLogPct - r.LatRedLogPct; d > 2.5 || d < -2.5 {
			t.Errorf("size %d: logging %.2f%% vs no-logging %.2f%% diverge", r.Bytes, r.LatRedLogPct, r.LatRedNoLogPct)
		}
	}
	if peaks < 2 {
		t.Errorf("expected at least the paper's two piggyback peaks, found %d", peaks)
	}
	if worst > -8 {
		t.Errorf("worst small-message degradation only %.2f%%; plateaus not exercised", worst)
	}
	// Large messages: overhead near zero.
	last := rows[len(rows)-1]
	if last.LatRedNoLogPct < -2 {
		t.Errorf("8MiB no-logging overhead %.2f%%, want ~0", last.LatRedNoLogPct)
	}
	if last.LatRedLogPct < -3 {
		t.Errorf("8MiB logging overhead %.2f%%, want ~0 (overlap)", last.LatRedLogPct)
	}
	t.Logf("worst small-message degradation %.2f%%, %d peaks, 8MiB: noLog %.2f%% log %.2f%%",
		worst, peaks, last.LatRedNoLogPct, last.LatRedLogPct)
}

// TestFigure6Reproduction runs the six kernels at 256 ranks under the three
// protocols and checks the paper's ordering and bounds.
func TestFigure6Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank sweep")
	}
	clusterings, _, err := hydee.Clusterings(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := hydee.Figure6(context.Background(), 256, 3, clusterings, nil, hydee.ProtoMLog, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-3s mlog=%.4f hydee=%.4f (hydee logs %.1f%%)", r.App, r.MLogNorm, r.HydEENorm, r.HydEELoggedPct)
		if r.HydEENorm < 0.9999 {
			t.Errorf("%s: HydEE faster than native (%.4f)", r.App, r.HydEENorm)
		}
		if r.HydEEPct > 2.0 {
			t.Errorf("%s: HydEE overhead %.2f%%, paper bound ~1.25-2%%", r.App, r.HydEEPct)
		}
		if r.MLogNorm+1e-9 < r.HydEENorm {
			t.Errorf("%s: full logging (%.4f) beat partial logging (%.4f)", r.App, r.MLogNorm, r.HydEENorm)
		}
	}
}

// TestE4ContainmentReproduction checks the containment claims: HydEE rolls
// back one cluster, coordinated checkpointing everything, message logging
// one process; all recover to the failure-free digests.
func TestE4ContainmentReproduction(t *testing.T) {
	k, err := hydee.KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cl := clusterKernel(t, k, 64)
	rows, err := hydee.Containment(context.Background(), hydee.ExperimentSpec{
		Kernel: k, Params: hydee.KernelParams{NP: 64, Iters: 10}, Assign: cl.Assign, CheckpointEvery: 3,
		Failures: []hydee.FailureEvent{{Ranks: []int{32}, When: hydee.FailureTrigger{AfterCheckpoints: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]hydee.E4Row{}
	for _, r := range rows {
		byProto[r.Proto] = r
		t.Logf("%-6s rolled=%6.2f%% recovery=%v overhead=%.1f%%", r.Proto, r.RolledBackPct, r.RecoveryVT, r.OverheadPct)
	}
	if byProto["coord"].RolledBackPct != 100 {
		t.Errorf("coord rolled back %.1f%%, want 100%%", byProto["coord"].RolledBackPct)
	}
	if h := byProto["hydee"].RolledBackPct; h >= 50 || h <= 0 {
		t.Errorf("hydee rolled back %.1f%%, want one cluster (<50%%)", h)
	}
	if m := byProto["mlog"].RolledBackPct; m > 2 {
		t.Errorf("mlog rolled back %.1f%%, want a single rank", m)
	}
}

// TestE5CheckpointBurst checks the I/O-burst argument: under a shared
// store, staggered per-cluster checkpoints queue less than simultaneous
// global ones.
func TestE5CheckpointBurst(t *testing.T) {
	k, err := hydee.KernelByName("bt")
	if err != nil {
		t.Fatal(err)
	}
	cl := clusterKernel(t, k, 16)
	base := hydee.ExperimentSpec{Kernel: k, Params: hydee.KernelParams{NP: 16, Iters: 8}, Assign: cl.Assign, CheckpointEvery: 4}
	rows, err := hydee.CheckpointBurst(context.Background(), base, 4e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows without shards, want coord-simultaneous, hydee-simultaneous, hydee-staggered", len(rows))
	}
	var coordQ, stagQ hydee.E5Row
	for _, r := range rows {
		t.Logf("%-20s maxQueue=%v makespan=%v", r.Config, r.MaxQueue, r.Makespan)
		switch r.Config {
		case "coord-simultaneous":
			coordQ = r
		case "hydee-staggered":
			stagQ = r
		}
	}
	if stagQ.MaxQueue >= coordQ.MaxQueue {
		t.Errorf("staggering did not reduce the burst: %v vs %v", stagQ.MaxQueue, coordQ.MaxQueue)
	}
}

// TestFacadeSmoke exercises the public API end to end the way the README
// quickstart does, via the Engine entry point.
func TestFacadeSmoke(t *testing.T) {
	ctx := context.Background()
	topo := hydee.NewTopology([]int{0, 0, 1, 1})
	base := []hydee.Option{
		hydee.WithTopology(topo),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithCheckpointEvery(3),
	}
	cleanEng, err := hydee.New(base...)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanEng.Run(ctx, hydee.StencilProgram(6, 4096))
	if err != nil {
		t.Fatal(err)
	}
	failEng, err := hydee.New(append(base, hydee.WithFailureEvents(hydee.FailureEvent{
		Ranks: []int{2}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := failEng.Run(ctx, hydee.StencilProgram(6, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if clean.Results[r] != failed.Results[r] {
			t.Fatalf("rank %d diverged", r)
		}
	}
	if len(failed.Rounds) != 1 || failed.Rounds[0].RolledBack != 2 {
		t.Fatalf("rounds: %+v", failed.Rounds)
	}
}

package hydee

// Determinism and behaviour of the E6 shard-loss redundancy sweep: the
// formatted output must be byte-reproducible run-to-run (the make
// determinism target runs this twice under -race), and the redundancy
// claims must hold — the layouts without redundancy abort with the
// typed lost-checkpoint error under recovery-time shard loss, the
// erasure-coded and replicated layouts recover through it.

import (
	"context"
	"testing"
)

// e6Rows runs the sweep in the standard test scenario (cg/16, the same
// clustering the other determinism tests use, rank 8 failing after its
// second checkpoint, two shards killed inside the recovery round).
func e6Rows(t *testing.T) []e6Row {
	t.Helper()
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	base := ExperimentSpec{
		Kernel: k, Params: KernelParams{NP: 16, Iters: 8}, Assign: cgAssign(t), CheckpointEvery: 3,
		Failures: []FailureEvent{{Ranks: []int{8}, When: FailureTrigger{AfterCheckpoints: 2}}},
	}
	rows, err := storeFaultSweep(context.Background(), base, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// e6Pinned is the sweep's formatted output for e6Rows' scenario (cg,
// np 16, 8 iterations, a checkpoint every 3, 4e9 B/s per target): the
// shared and plain-sharded layouts lose their checkpoints, ec:4+2 and
// replica:3 recover through degraded loads.
const e6Pinned = `Config        Shards  Lost   Outcome        CleanVT        FaultVT   Overhead      PhysBytes  DegLoads
shared             1     1      lost       146.96ms              -          -      208800864         -
sharded:6          6     2      lost       107.83ms              -          -      208800864         -
ec:4+2             6     2 recovered       107.81ms       113.06ms      4.87%      313213584         4
replica:3          3     2 recovered       146.96ms       146.97ms      0.01%      626408736         8
`

// TestE6StoreFaultSweepReproducible runs the shard-loss sweep twice and
// requires byte-identical formatted output — makespans, physical
// volumes, degraded-load counts and survival outcomes included — equal
// to e6Pinned. The shard kills are scheduled at a virtual time learned
// from a probe run, so reproducibility here is evidence the whole chain
// (probe, fault schedule, degraded restore) is on the virtual-time event
// plane.
func TestE6StoreFaultSweepReproducible(t *testing.T) {
	a, b := formatE6(e6Rows(t)), formatE6(e6Rows(t))
	if a != b {
		t.Errorf("store-fault sweep output not byte-reproducible:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if a != e6Pinned {
		t.Errorf("store-fault sweep output moved:\n--- got\n%s\n--- want\n%s", a, e6Pinned)
	}
	t.Logf("\n%s", a)
}

// TestE6RedundancyOutcomes checks the headline claims: the same
// two-shard loss that kills the plain layouts is absorbed by the
// redundant ones, at their respective storage price.
func TestE6RedundancyOutcomes(t *testing.T) {
	rows := e6Rows(t)
	byName := map[string]e6Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	for _, name := range []string{"shared", "sharded:6"} {
		if r, ok := byName[name]; !ok || r.Survived {
			t.Errorf("%s: survived=%v (want present and lost)", name, r.Survived)
		}
	}
	for _, name := range []string{"ec:4+2", "replica:3"} {
		r, ok := byName[name]
		if !ok || !r.Survived {
			t.Fatalf("%s: survived=%v (want present and recovered)", name, r.Survived)
		}
		if r.DegradedLoads == 0 {
			t.Errorf("%s: recovered with 0 degraded loads; the kill did not hit the restore path", name)
		}
		if r.FaultVT <= r.CleanVT {
			t.Errorf("%s: faulted makespan %v <= clean %v", name, r.FaultVT, r.CleanVT)
		}
	}
	// Storage bills: replica:3 pays 3x the shared volume (plus fragment
	// envelopes), ec:4+2 pays 1.5x; both strictly more than plain
	// sharding, replica strictly more than ec.
	shared, ec, rep := byName["shared"], byName["ec:4+2"], byName["replica:3"]
	if !(rep.PhysBytes > ec.PhysBytes && ec.PhysBytes > shared.PhysBytes) {
		t.Errorf("storage bills out of order: shared=%d ec=%d replica=%d",
			shared.PhysBytes, ec.PhysBytes, rep.PhysBytes)
	}
}

package apps_test

// Structural tests of the kernels' communication patterns: Table I depends
// on who talks to whom and how much, so each kernel's traffic matrix is
// pinned here independently of the clustering tool.

import (
	"testing"

	"hydee/internal/apps"
	"hydee/internal/mpi"
	"hydee/internal/rollback"
)

// traceMatrix runs a kernel at np ranks and returns the directed byte
// matrix.
func traceMatrix(t *testing.T, name string, np, iters int) []int64 {
	t.Helper()
	k, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Make(apps.Params{NP: np, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(mpi.Config{NP: np, Protocol: rollback.Native()}, prog)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]int64, np*np)
	for _, e := range res.Traffic {
		m[e.Src*np+e.Dst] = e.Bytes
	}
	return m
}

// rowColBytes sums traffic within grid rows vs across rows for a 2D-grid
// kernel (allreduce crumbs included in "other").
func rowColBytes(np, cols int, m []int64) (sameRow, other int64) {
	for s := 0; s < np; s++ {
		for d := 0; d < np; d++ {
			if m[s*np+d] == 0 {
				continue
			}
			if s/cols == d/cols {
				sameRow += m[s*np+d]
			} else {
				other += m[s*np+d]
			}
		}
	}
	return
}

func TestBTAndSPAreRowDominant(t *testing.T) {
	for _, name := range []string{"bt", "sp"} {
		m := traceMatrix(t, name, 16, 2)
		row, other := rowColBytes(16, 4, m)
		if row <= other {
			t.Errorf("%s: row traffic %d not dominant over %d — row-stripe clustering would not emerge", name, row, other)
		}
	}
}

func TestCGRowButterflyDominates(t *testing.T) {
	m := traceMatrix(t, "cg", 16, 2)
	row, other := rowColBytes(16, 4, m)
	// The paper's CG clusters are grid rows: row traffic must carry the
	// bulk (transpose + dot products are the logged remainder).
	if float64(row)/float64(row+other) < 0.6 {
		t.Errorf("cg: row share %.2f too low", float64(row)/float64(row+other))
	}
}

func TestFTIsUniformAllToAll(t *testing.T) {
	np := 8
	m := traceMatrix(t, "ft", np, 1)
	var min, max int64
	for s := 0; s < np; s++ {
		for d := 0; d < np; d++ {
			if s == d {
				continue
			}
			b := m[s*np+d]
			if b == 0 {
				t.Fatalf("ft: no traffic %d->%d (all-to-all broken)", s, d)
			}
			if min == 0 || b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
	}
	// The transpose blocks dominate; collective crumbs make pairs only
	// slightly unequal.
	if float64(max)/float64(min) > 1.5 {
		t.Errorf("ft: pair traffic spread %d..%d too wide for an all-to-all", min, max)
	}
}

func TestLUIsWavefrontNeighborOnly(t *testing.T) {
	np := 16
	cols := 4
	m := traceMatrix(t, "lu", np, 1)
	var neighbor, far int64
	for s := 0; s < np; s++ {
		sr, sc := s/cols, s%cols
		for d := 0; d < np; d++ {
			if m[s*np+d] == 0 || s == d {
				continue
			}
			dr, dc := d/cols, d%cols
			manhattan := abs(sr-dr) + abs(sc-dc)
			if manhattan == 1 {
				neighbor += m[s*np+d]
			} else {
				far += m[s*np+d]
			}
		}
	}
	if float64(neighbor)/float64(neighbor+far) < 0.95 {
		t.Errorf("lu: neighbor share %.3f, want ~all traffic on grid edges",
			float64(neighbor)/float64(neighbor+far))
	}
	// The pipeline is bounded: corner rank (0,0) receives nothing in the
	// lower sweep before sending — check it has no incoming north/west.
	if m[0] != 0 {
		t.Error("lu: self traffic")
	}
}

func TestMGZFacesAreLighter(t *testing.T) {
	// 2x2x2 grid at np=8: z-partners differ by 4 in rank; x/y partners by
	// 1 or 2. The z share must be the smallest (the paper's clusters are
	// z slabs because cutting z is cheapest).
	np := 8
	m := traceMatrix(t, "mg", np, 2)
	var xy, z int64
	for s := 0; s < np; s++ {
		for d := 0; d < np; d++ {
			if m[s*np+d] == 0 {
				continue
			}
			if abs(s-d) == 4 {
				z += m[s*np+d]
			} else {
				xy += m[s*np+d]
			}
		}
	}
	if z == 0 {
		t.Fatal("mg: no z traffic")
	}
	if z >= xy {
		t.Errorf("mg: z traffic %d not lighter than x/y %d", z, xy)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestVolumeScalesWithIterations pins the per-iteration volume accounting
// the GB extrapolation of Table I rests on.
func TestVolumeScalesWithIterations(t *testing.T) {
	for _, name := range []string{"bt", "cg", "mg"} {
		one := traceMatrix(t, name, 16, 1)
		three := traceMatrix(t, name, 16, 3)
		var b1, b3 int64
		for i := range one {
			b1 += one[i]
			b3 += three[i]
		}
		ratio := float64(b3) / float64(b1)
		if ratio < 2.8 || ratio > 3.2 {
			t.Errorf("%s: 3-iteration volume is %.2fx the 1-iteration volume, want ~3x", name, ratio)
		}
	}
}

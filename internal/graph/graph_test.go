package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// torus2D builds a rows x cols torus with the given x/y edge weights.
func torus2D(rows, cols int, wx, wy float64) *Graph {
	g := New(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				g.AddTraffic(at(r, c), at(r, (c+1)%cols), wx)
			}
			if rows > 1 {
				g.AddTraffic(at(r, c), at((r+1)%rows, c), wy)
			}
		}
	}
	return g
}

func TestCutFractionHandGraph(t *testing.T) {
	// Two triangles joined by one edge.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddTraffic(e[0], e[1], 10)
	}
	g.AddTraffic(2, 3, 5)
	assign := []int{0, 0, 0, 1, 1, 1}
	if got := g.CutFraction(assign); math.Abs(got-5.0/65.0) > 1e-12 {
		t.Fatalf("cut fraction %v, want %v", got, 5.0/65.0)
	}
	if got := g.CutBytes(assign); got != 5 {
		t.Fatalf("cut bytes %v", got)
	}
}

func TestExpectedRollback(t *testing.T) {
	// Paper Table I arithmetic: 16 clusters of 16 on 256 -> 6.25%;
	// 2 of 128 -> 50%; 4 of 64 -> 25%; 8 of 32 -> 12.5%.
	cases := []struct {
		k, n int
		want float64
	}{
		{16, 256, 0.0625},
		{2, 256, 0.5},
		{4, 256, 0.25},
		{8, 256, 0.125},
	}
	for _, c := range cases {
		assign := make([]int, c.n)
		for i := range assign {
			assign[i] = i % c.k
		}
		if got := ExpectedRollback(assign, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("k=%d: got %v want %v", c.k, got, c.want)
		}
	}
}

func TestNormalizeAndSizes(t *testing.T) {
	assign := []int{7, 7, 3, 3, 3, 9}
	k := Normalize(assign)
	if k != 3 {
		t.Fatalf("k=%d", k)
	}
	want := []int{0, 0, 1, 1, 1, 2}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("normalize: %v", assign)
		}
	}
	sizes := ClusterSizes(assign)
	if sizes[0] != 2 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("sizes: %v", sizes)
	}
}

func TestPartitionerFindsRowStripes(t *testing.T) {
	// Row traffic 5x the column traffic on a 8x8 torus: row stripes are
	// clearly optimal; a 4-way partition should cut only column edges.
	g := torus2D(8, 8, 50, 10)
	opt := DefaultOptions()
	opt.CandidateK = []int{4}
	opt.Restarts = 8
	res := Cluster(g, opt)
	assign := res.Assign
	if res.K != 4 {
		t.Fatalf("k=%d", res.K)
	}
	cut := g.CutFraction(assign)
	// Ideal 2-row stripes: cut = half of column traffic = (1/6)*... total
	// row weight 64*50, col weight 64*10; stripes of 2 cut all stripe
	// boundaries = 64 col edges of... 8 rows in stripes of 2 -> every
	// rank has one cut col edge = 64*10/2... accept anything close to the
	// ideal 1/6*...: compute ideal directly.
	ideal := 64.0 * 10 / 2 / g.Total // half the col edges cross
	if cut > ideal*1.3 {
		t.Fatalf("cut %.4f far above ideal %.4f", cut, ideal)
	}
	// Every cluster must be a full pair of rows for the ideal cut.
	if ExpectedRollback(assign, 64) != 0.25 {
		t.Fatalf("unbalanced stripes: %v", ClusterSizes(assign))
	}
}

func TestClusterSweepAllToAll(t *testing.T) {
	// Uniform all-to-all (FT): any k-way equal partition logs ~ 1-1/k of
	// the traffic, so the sweep must settle on k=2 at ~50% (Table I).
	n := 32
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddTraffic(i, j, 1)
		}
	}
	res := Cluster(g, DefaultOptions())
	if res.K != 2 {
		t.Fatalf("k=%d, want 2", res.K)
	}
	if res.CutFrac < 0.45 || res.CutFrac > 0.55 {
		t.Fatalf("cut %.3f, want ~0.5", res.CutFrac)
	}
	if math.Abs(res.ExpRollback-0.5) > 0.05 {
		t.Fatalf("rollback %.3f, want ~0.5", res.ExpRollback)
	}
}

func TestClusterRespectsMaxSize(t *testing.T) {
	g := torus2D(8, 8, 50, 10)
	opt := DefaultOptions()
	opt.MaxClusterFrac = 0.25
	res := Cluster(g, opt)
	maxAllowed := int(0.25*64) + 1
	for _, s := range ClusterSizes(res.Assign) {
		if s > maxAllowed {
			t.Fatalf("cluster size %d exceeds bound %d", s, maxAllowed)
		}
	}
}

func TestClusterEmptyGraph(t *testing.T) {
	g := New(8)
	res := Cluster(g, DefaultOptions())
	if len(res.Assign) != 8 {
		t.Fatalf("assign length %d", len(res.Assign))
	}
}

func TestSwapPassEscapesBalancedMinimum(t *testing.T) {
	// Two "communities" interleaved so single moves are size-blocked:
	// vertices 0..3 talk to each other, 4..7 talk to each other; start
	// from the worst balanced split and check swaps fix it.
	g := New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddTraffic(i, j, 10)
			g.AddTraffic(i+4, j+4, 10)
		}
	}
	assign := []int{0, 1, 0, 1, 0, 1, 0, 1} // fully mixed
	for pass := 0; pass < 8; pass++ {
		if !swapPass(g, assign) {
			break
		}
	}
	if cut := g.CutFraction(assign); cut != 0 {
		t.Fatalf("swap refinement left cut %.3f, want 0 (assign %v)", cut, assign)
	}
}

func TestFromPairBytesSymmetrizes(t *testing.T) {
	bytes := make([]int64, 9)
	bytes[0*3+1] = 100 // 0->1
	bytes[1*3+0] = 50  // 1->0
	g := FromPairBytes(3, bytes)
	if g.Weight(0, 1) != 150 || g.Weight(1, 0) != 150 || g.Weight(0, 2) != 0 {
		t.Fatalf("symmetrization wrong: %v", g.Weight(0, 1))
	}
	if g.Total != 150 || g.Degree(0) != 150 || g.Degree(2) != 0 {
		t.Fatalf("total %v, degrees %v %v", g.Total, g.Degree(0), g.Degree(2))
	}
}

func TestFromEdgesMergesBothDirections(t *testing.T) {
	g := fromEdges(4, []edge{
		{Src: 2, Dst: 0, Bytes: 7},
		{Src: 0, Dst: 2, Bytes: 3},
		{Src: 1, Dst: 1, Bytes: 9}, // self-traffic
		{Src: 3, Dst: 4, Bytes: 9}, // outside the graph
		{Src: 1, Dst: 3, Bytes: 5},
	})
	if g.Weight(0, 2) != 10 || g.Weight(2, 0) != 10 || g.Weight(1, 3) != 5 || g.Weight(1, 1) != 0 {
		t.Fatalf("weights: %v %v %v", g.Weight(0, 2), g.Weight(1, 3), g.Weight(1, 1))
	}
	if g.Total != 15 || g.Degree(3) != 5 {
		t.Fatalf("total %v, degree(3) %v", g.Total, g.Degree(3))
	}
}

// An empty CandidateK takes the default cluster counts and nothing else:
// the caller's Lambda, bound, refinements, restarts and seed still apply.
func TestClusterEmptyCandidateKKeepsOtherOptions(t *testing.T) {
	n := 32
	all := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all.AddTraffic(i, j, 1)
		}
	}
	// Rollback dominates at Lambda 100: the largest default count wins,
	// where the default Lambda settles on k = 2.
	if res := Cluster(all, Options{Lambda: 100, Refinements: 8, Restarts: 1, Seed: 1}); res.K != 32 {
		t.Fatalf("explicit Lambda ignored: k=%d, want 32", res.K)
	}
	g := torus2D(8, 8, 50, 10)
	explicit := Options{CandidateK: DefaultOptions().CandidateK, MaxClusterFrac: 0.3, Lambda: 0.5, Refinements: 1, Restarts: 1, Seed: 7}
	want := Cluster(g, explicit)
	if def := Cluster(g, DefaultOptions()); slices.Equal(def.Assign, want.Assign) {
		t.Fatal("seed 7 with one restart and one refinement matches the defaults; pick options that tell them apart")
	}
	implicit := explicit
	implicit.CandidateK = nil
	if got := Cluster(g, implicit); !slices.Equal(got.Assign, want.Assign) || got.Score != want.Score {
		t.Fatalf("explicit Seed/Restarts/Refinements ignored: got %+v, want %+v", got, want)
	}
}

// Properties: for random graphs and partitions, the cut fraction is in
// [0,1], expected rollback is in (0,1], and a one-cluster partition has
// zero cut and rollback 1.
func TestPartitionProperties(t *testing.T) {
	f := func(edges []uint16, parts []uint8) bool {
		const n = 12
		g := New(n)
		for i, e := range edges {
			a := int(e) % n
			b := (int(e) / n) % n
			if a != b {
				g.AddTraffic(a, b, float64(i%7+1))
			}
		}
		assign := make([]int, n)
		for i := range assign {
			if len(parts) > 0 {
				assign[i] = int(parts[i%len(parts)]) % 4
			}
		}
		cut := g.CutFraction(assign)
		rb := ExpectedRollback(assign, n)
		if cut < 0 || cut > 1 || rb <= 0 || rb > 1 {
			return false
		}
		one := make([]int, n)
		return g.CutFraction(one) == 0 && ExpectedRollback(one, n) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

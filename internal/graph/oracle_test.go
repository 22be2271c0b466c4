package graph_test

// The dense partitioner the sparse one replaced, kept as its oracle: an
// N×N weight matrix and O(N²) passes, exactly as Table I was first
// computed. The sparse package must return bit-identical Results — the
// same assignment, the same K, and the same float64 bits for every metric
// — on the kernels' traced graphs and on seeded and fuzzed random graphs.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hydee"
	"hydee/internal/apps"
	"hydee/internal/graph"
)

// denseGraph is an undirected weighted communication graph: W[i][j] is the
// number of bytes exchanged between processes i and j (both directions
// summed).
type denseGraph struct {
	N     int
	W     [][]float64
	Total float64 // sum over unordered pairs
}

func denseNew(n int) *denseGraph {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	return &denseGraph{N: n, W: w}
}

func (g *denseGraph) AddTraffic(i, j int, bytes float64) {
	if i == j || bytes == 0 {
		return
	}
	g.W[i][j] += bytes
	g.W[j][i] += bytes
	g.Total += bytes
}

func denseFromPairBytes(np int, bytes []int64) *denseGraph {
	g := denseNew(np)
	if len(bytes) < np*np {
		return g
	}
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			b := float64(bytes[i*np+j] + bytes[j*np+i])
			if b > 0 {
				g.AddTraffic(i, j, b)
			}
		}
	}
	return g
}

func (g *denseGraph) Degree(i int) float64 {
	var d float64
	for j := 0; j < g.N; j++ {
		d += g.W[i][j]
	}
	return d
}

func (g *denseGraph) CutFraction(assign []int) float64 {
	if g.Total == 0 {
		return 0
	}
	var cut float64
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if assign[i] != assign[j] {
				cut += g.W[i][j]
			}
		}
	}
	return cut / g.Total
}

func (g *denseGraph) CutBytes(assign []int) float64 {
	var cut float64
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if assign[i] != assign[j] {
				cut += g.W[i][j]
			}
		}
	}
	return cut
}

func denseCluster(g *denseGraph, opt graph.Options) graph.Result {
	if len(opt.CandidateK) == 0 {
		opt.CandidateK = graph.DefaultOptions().CandidateK
	}
	best := graph.Result{Score: -1}
	restarts := opt.Restarts
	if restarts < 1 {
		restarts = 1
	}
	for _, k := range opt.CandidateK {
		if k < 1 || k > g.N {
			continue
		}
		maxSize := g.N
		if opt.MaxClusterFrac > 0 {
			maxSize = int(opt.MaxClusterFrac * float64(g.N))
			if maxSize < (g.N+k-1)/k {
				maxSize = (g.N + k - 1) / k // must be feasible
			}
		}
		for r := 0; r < restarts; r++ {
			assign := densePartitionK(g, k, maxSize, opt.Refinements, opt.Seed+int64(31*r))
			kk := graph.Normalize(assign)
			cut := g.CutFraction(assign)
			rb := graph.ExpectedRollback(assign, g.N)
			score := cut + opt.Lambda*rb
			if best.Score < 0 || score < best.Score {
				best = graph.Result{
					Assign:      assign,
					K:           kk,
					CutFrac:     cut,
					CutBytes:    g.CutBytes(assign),
					TotalBytes:  g.Total,
					ExpRollback: rb,
					Score:       score,
				}
			}
		}
	}
	if best.Score < 0 {
		assign := make([]int, g.N)
		best = graph.Result{Assign: assign, K: 1, ExpRollback: 1, TotalBytes: g.Total}
	}
	return best
}

func densePartitionK(g *denseGraph, k, maxSize, refine int, seed int64) []int {
	n := g.N
	assign := denseGreedyGrow(g, k, maxSize, seed)
	for pass := 0; pass < refine; pass++ {
		moved := denseKLPass(g, assign, maxSize)
		swapped := denseSwapPass(g, assign)
		if !moved && !swapped {
			break
		}
	}
	if len(assign) != n {
		panic(fmt.Sprintf("graph: partition size %d != %d", len(assign), n))
	}
	return assign
}

func denseGreedyGrow(g *denseGraph, k, maxSize int, seed int64) []int {
	n := g.N
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(a, b int) bool { return g.Degree(order[a]) > g.Degree(order[b]) })
	seeds := []int{order[0]}
	for len(seeds) < k {
		bestV, bestConn := -1, 0.0
		for _, v := range order {
			if assign[v] != -1 || contains(seeds, v) {
				continue
			}
			var conn float64
			for _, s := range seeds {
				conn += g.W[v][s]
			}
			if bestV == -1 || conn < bestConn {
				bestV, bestConn = v, conn
			}
		}
		if bestV == -1 {
			bestV = rng.Intn(n)
		}
		seeds = append(seeds, bestV)
	}
	sizes := make([]int, k)
	for c, s := range seeds {
		assign[s] = c
		sizes[c]++
	}
	conn := make([][]float64, n)
	for v := range conn {
		conn[v] = make([]float64, k)
		for c, s := range seeds {
			conn[v][c] = g.W[v][s]
		}
	}
	remaining := n - k
	for remaining > 0 {
		c := -1
		for cc := 0; cc < k; cc++ {
			if sizes[cc] >= maxSize {
				continue
			}
			if c == -1 || sizes[cc] < sizes[c] {
				c = cc
			}
		}
		if c == -1 {
			for v := 0; v < n; v++ {
				if assign[v] == -1 {
					assign[v] = v % k
					remaining--
				}
			}
			break
		}
		bestV, bestGain := -1, -1.0
		for v := 0; v < n; v++ {
			if assign[v] != -1 {
				continue
			}
			if bestV == -1 || conn[v][c] > bestGain {
				bestV, bestGain = v, conn[v][c]
			}
		}
		assign[bestV] = c
		sizes[c]++
		remaining--
		for v := 0; v < n; v++ {
			if assign[v] == -1 {
				conn[v][c] += g.W[v][bestV]
			}
		}
	}
	return assign
}

func denseKLPass(g *denseGraph, assign []int, maxSize int) bool {
	n := g.N
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	conn := make([]float64, k)
	moved := false
	for v := 0; v < n; v++ {
		for c := range conn {
			conn[c] = 0
		}
		for u := 0; u < n; u++ {
			if w := g.W[v][u]; w > 0 {
				conn[assign[u]] += w
			}
		}
		cur := assign[v]
		if sizes[cur] <= 1 {
			continue
		}
		bestC, bestGain := cur, 0.0
		for c := 0; c < k; c++ {
			if c == cur || sizes[c] >= maxSize {
				continue
			}
			gain := conn[c] - conn[cur]
			if gain > bestGain {
				bestC, bestGain = c, gain
			}
		}
		if bestC != cur {
			sizes[cur]--
			sizes[bestC]++
			assign[v] = bestC
			moved = true
		}
	}
	return moved
}

func denseSwapPass(g *denseGraph, assign []int) bool {
	n := g.N
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	conn := make([][]float64, n)
	for v := 0; v < n; v++ {
		conn[v] = make([]float64, k)
		for u := 0; u < n; u++ {
			if w := g.W[v][u]; w > 0 {
				conn[v][assign[u]] += w
			}
		}
	}
	swapped := false
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			a, b := assign[u], assign[v]
			if a == b {
				continue
			}
			gain := (conn[u][b] - conn[u][a]) + (conn[v][a] - conn[v][b]) - 2*g.W[u][v]
			if gain <= 1e-12 {
				continue
			}
			assign[u], assign[v] = b, a
			swapped = true
			for x := 0; x < n; x++ {
				if w := g.W[x][u]; w > 0 {
					conn[x][a] -= w
					conn[x][b] += w
				}
				if w := g.W[x][v]; w > 0 {
					conn[x][b] -= w
					conn[x][a] += w
				}
			}
		}
	}
	return swapped
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Comparison.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkGraphs asserts the sparse graph holds the dense one's Total, every
// weight and every degree, bit for bit.
func checkGraphs(t *testing.T, what string, s *graph.Graph, d *denseGraph) {
	t.Helper()
	if s.N != d.N || !sameBits(s.Total, d.Total) {
		t.Fatalf("%s: N %d total %v, oracle N %d total %v", what, s.N, s.Total, d.N, d.Total)
	}
	for i := 0; i < d.N; i++ {
		if !sameBits(s.Degree(i), d.Degree(i)) {
			t.Fatalf("%s: degree(%d) %v, oracle %v", what, i, s.Degree(i), d.Degree(i))
		}
		for j := 0; j < d.N; j++ {
			if !sameBits(s.Weight(i, j), d.W[i][j]) {
				t.Fatalf("%s: weight(%d,%d) %v, oracle %v", what, i, j, s.Weight(i, j), d.W[i][j])
			}
		}
	}
}

// checkCluster asserts Cluster and the oracle agree on opt, bit for bit.
func checkCluster(t *testing.T, what string, s *graph.Graph, d *denseGraph, opt graph.Options) {
	t.Helper()
	got, want := graph.Cluster(s, opt), denseCluster(d, opt)
	same := got.K == want.K && len(got.Assign) == len(want.Assign) &&
		sameBits(got.CutFrac, want.CutFrac) && sameBits(got.CutBytes, want.CutBytes) &&
		sameBits(got.TotalBytes, want.TotalBytes) && sameBits(got.ExpRollback, want.ExpRollback) &&
		sameBits(got.Score, want.Score)
	for i := 0; same && i < len(got.Assign); i++ {
		same = got.Assign[i] == want.Assign[i]
	}
	if !same {
		t.Fatalf("%s (opt %+v):\n got  %+v\n want %+v", what, opt, got, want)
	}
}

// TestClusterMatchesDenseOracle holds the sparse partitioner to the dense
// one on every kernel's traced graph and on seeded random graphs.
func TestClusterMatchesDenseOracle(t *testing.T) {
	t.Run("kernels", func(t *testing.T) {
		nps := []int{16, 64, 256}
		if testing.Short() || raceEnabled {
			nps = nps[:2]
		}
		for _, np := range nps {
			for _, k := range apps.Registry() {
				sum, err := hydee.RunExperiment(hydee.ExperimentSpec{Kernel: k, Params: apps.Params{NP: np, Iters: 2}, Proto: hydee.ProtoNative})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s np=%d", k.Name, np)
				s, d := graph.FromPairBytes(np, sum.PairBytes), denseFromPairBytes(np, sum.PairBytes)
				checkGraphs(t, what, s, d)
				checkCluster(t, what, s, d, graph.DefaultOptions())
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		seeds := 300
		if testing.Short() {
			seeds = 60
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			what := fmt.Sprintf("seed %d", seed)
			s, d := randomGraphs(rng)
			checkGraphs(t, what, s, d)
			checkCluster(t, what, s, d, randomOptions(rng, d.N))
		}
	})
}

// randomGraphs builds the same random graph both ways: sparse, complete,
// tied-weight and isolated-vertex shapes, with fractional weights so the
// summation order shows in the low bits.
func randomGraphs(rng *rand.Rand) (*graph.Graph, *denseGraph) {
	n := 1 + rng.Intn(48)
	s, d := graph.New(n), denseNew(n)
	add := func(i, j int, w float64) {
		s.AddTraffic(i, j, w)
		d.AddTraffic(i, j, w)
	}
	weight := func() float64 { return float64(1+rng.Intn(1000)) / 7 }
	switch rng.Intn(4) {
	case 0: // sparse, some pairs added more than once
		for e := rng.Intn(4 * n); e > 0; e-- {
			add(rng.Intn(n), rng.Intn(n), weight())
		}
	case 1: // complete
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				add(i, j, weight())
			}
		}
	case 2: // tied weights: a torus-like ring plus chords, all equal
		for i := 0; i < n; i++ {
			add(i, (i+1)%n, 3)
			add(i, (i+n/2)%n, 3)
		}
	default: // isolated vertices: only the first half talks
		h := max(n/2, 1)
		for e := rng.Intn(6 * h); e > 0; e-- {
			add(rng.Intn(h), rng.Intn(h), weight())
		}
	}
	return s, d
}

// randomOptions draws a sweep, with candidate counts up to n (and one
// past it, which the sweep skips).
func randomOptions(rng *rand.Rand, n int) graph.Options {
	opt := graph.Options{
		MaxClusterFrac: []float64{0, 0.1, 0.3, 0.5}[rng.Intn(4)],
		Lambda:         []float64{0, 0.5, 2}[rng.Intn(3)],
		Refinements:    rng.Intn(9),
		Restarts:       rng.Intn(4),
		Seed:           rng.Int63n(1000),
	}
	if rng.Intn(4) > 0 {
		for c := 1 + rng.Intn(5); c > 0; c-- {
			opt.CandidateK = append(opt.CandidateK, rng.Intn(n+2))
		}
	}
	return opt
}

// FuzzClusterOracle lets the fuzzer pick the graph and the sweep: the first
// bytes choose n and the options, the rest are (i, j, weight) triples.
func FuzzClusterOracle(f *testing.F) {
	for seed := 0; seed < 4; seed++ {
		data := make([]byte, 120)
		rand.New(rand.NewSource(int64(200 + seed))).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 1 + int(data[0])%40
		opt := graph.Options{
			MaxClusterFrac: float64(data[1]%5) / 10,
			Lambda:         float64(data[2]%8) / 4,
			Refinements:    int(data[3] % 9),
			Restarts:       int(data[4] % 4),
			Seed:           int64(data[5]),
		}
		for _, b := range data[6:min(len(data), 9)] {
			opt.CandidateK = append(opt.CandidateK, int(b)%(n+2))
		}
		s, d := graph.New(n), denseNew(n)
		for rest := data[min(len(data), 9):]; len(rest) >= 3; rest = rest[3:] {
			i, j, w := int(rest[0])%n, int(rest[1])%n, float64(1+int(rest[2]))/3
			s.AddTraffic(i, j, w)
			d.AddTraffic(i, j, w)
		}
		checkGraphs(t, "fuzz", s, d)
		checkCluster(t, "fuzz", s, d, opt)
	})
}

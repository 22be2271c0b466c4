// Package graph implements the communication-graph clustering tool HydEE
// depends on.
//
// The paper (§V-B3) clusters application processes with the off-line tool of
// Ropars et al. (Euro-Par 2011): given a weighted graph of the bytes
// exchanged on every channel, find a partition that trades off the size of
// the clusters (which bounds how many processes roll back after a failure)
// against the volume of inter-cluster traffic (which must be logged).
//
// This package provides the weighted graph, quality metrics (logged-byte
// fraction, expected rollback fraction), and a partitioner: greedy seeded
// growth followed by Kernighan–Lin style refinement, swept over candidate
// cluster counts and scored by the combined objective. The outputs populate
// Table I of the paper.
//
// The graph is sparse — sorted per-vertex adjacency, O(N + edges) — and
// every sum walks a vertex's neighbours in ascending id order. That is the
// order in which the non-zero terms of a dense row sum appear, so each
// weight, degree, connectivity and cut is the same float a dense N×N
// matrix walk yields, and the clusterings are exactly those of the dense
// formulation (oracle_test.go holds the two to bitwise equality).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Graph is an undirected weighted communication graph over vertices
// 0..N-1: the weight of {i, j} is the number of bytes exchanged between
// processes i and j (both directions summed).
type Graph struct {
	N     int
	Total float64 // sum over unordered pairs
	// adj[i] lists i's neighbours in ascending id order; deg[i] caches
	// i's total traffic, summed in that order.
	adj [][]nbr
	deg []float64
}

// nbr is one adjacency entry: neighbour v, joined by weight w > 0.
type nbr struct {
	v int
	w float64
}

// edge is the directed traffic of one ordered process pair: Bytes sent
// from Src to Dst.
type edge struct {
	Src, Dst int
	Bytes    int64
}

// New creates an empty graph over n vertices.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]nbr, n), deg: make([]float64, n)}
}

// AddTraffic accumulates bytes exchanged between i and j (symmetric).
// Self-traffic and non-positive amounts are ignored.
func (g *Graph) AddTraffic(i, j int, bytes float64) {
	if i == j || !(bytes > 0) {
		return
	}
	g.addHalf(i, j, bytes)
	g.addHalf(j, i, bytes)
	g.Total += bytes
}

// addHalf adds w to j's entry in i's row and re-sums i's degree.
func (g *Graph) addHalf(i, j int, w float64) {
	row := g.adj[i]
	at, ok := slices.BinarySearchFunc(row, j, func(e nbr, j int) int { return cmp.Compare(e.v, j) })
	if ok {
		row[at].w += w
	} else {
		row = slices.Insert(row, at, nbr{j, w})
		g.adj[i] = row
	}
	g.deg[i] = rowSum(row)
}

func rowSum(row []nbr) float64 {
	var d float64
	for _, e := range row {
		d += e.w
	}
	return d
}

// fromEdges builds a graph over n vertices from directed traffic records,
// symmetrizing them: the weight of {i, j} is the bytes sent i→j plus j→i.
// Records naming a vertex outside 0..n-1, self-traffic and pairs whose sum
// is not positive are ignored. Pairs enter in ascending (min, max) order,
// so Total accumulates exactly as a row-major sweep of a dense matrix
// would.
func fromEdges(n int, edges []edge) *Graph {
	type half struct {
		hi    int
		bytes int64
	}
	rows := make([][]half, n)
	for _, e := range edges {
		lo, hi := min(e.Src, e.Dst), max(e.Src, e.Dst)
		if lo < 0 || hi >= n || lo == hi || e.Bytes == 0 {
			continue
		}
		rows[lo] = append(rows[lo], half{hi, e.Bytes})
	}
	g := New(n)
	for lo, row := range rows {
		slices.SortFunc(row, func(a, b half) int { return cmp.Compare(a.hi, b.hi) })
		for k := 0; k < len(row); {
			hi, b := row[k].hi, int64(0)
			for ; k < len(row) && row[k].hi == hi; k++ {
				b += row[k].bytes
			}
			if b > 0 {
				// Rows fill in ascending order: lo's from its own sweep, hi's
				// from the sweeps of smaller ids.
				w := float64(b)
				g.adj[lo] = append(g.adj[lo], nbr{hi, w})
				g.adj[hi] = append(g.adj[hi], nbr{lo, w})
				g.Total += w
			}
		}
	}
	for i, row := range g.adj {
		g.deg[i] = rowSum(row)
	}
	return g
}

// FromPairBytes builds a graph from an np*np row-major matrix of directed
// byte counts (row = sender), symmetrizing it. A nil or short matrix yields
// an empty graph over np vertices.
func FromPairBytes(np int, bytes []int64) *Graph {
	if len(bytes) < np*np {
		return New(np)
	}
	var edges []edge
	for i := 0; i < np; i++ {
		for j, b := range bytes[i*np : (i+1)*np] {
			if b != 0 {
				edges = append(edges, edge{i, j, b})
			}
		}
	}
	return fromEdges(np, edges)
}

// Weight reports the traffic between i and j (0 when they never talked).
func (g *Graph) Weight(i, j int) float64 {
	if at, ok := slices.BinarySearchFunc(g.adj[i], j, func(e nbr, j int) int { return cmp.Compare(e.v, j) }); ok {
		return g.adj[i][at].w
	}
	return 0
}

// Degree is the total traffic of vertex i.
func (g *Graph) Degree(i int) float64 { return g.deg[i] }

// CutFraction reports the fraction of total traffic crossing the partition:
// the fraction of bytes HydEE would log. assign[i] is the cluster of i.
func (g *Graph) CutFraction(assign []int) float64 {
	if g.Total == 0 {
		return 0
	}
	return g.CutBytes(assign) / g.Total
}

// CutBytes reports the absolute inter-cluster traffic in bytes.
func (g *Graph) CutBytes(assign []int) float64 {
	var cut float64
	for i, row := range g.adj {
		for _, e := range row {
			if e.v > i && assign[i] != assign[e.v] {
				cut += e.w
			}
		}
	}
	return cut
}

// ExpectedRollback is the average fraction of processes that roll back after
// a single failure when failures are uniformly distributed over processes
// (Table I, column 2): sum over clusters of (size/N)^2.
func ExpectedRollback(assign []int, n int) float64 {
	sizes := ClusterSizes(assign)
	var s float64
	for _, sz := range sizes {
		f := float64(sz) / float64(n)
		s += f * f
	}
	return s
}

// ClusterSizes returns the size of each cluster indexed by cluster id,
// compacting ids to 0..k-1 in order of first appearance.
func ClusterSizes(assign []int) []int {
	idx := make(map[int]int)
	var sizes []int
	for _, c := range assign {
		k, ok := idx[c]
		if !ok {
			k = len(sizes)
			idx[c] = k
			sizes = append(sizes, 0)
		}
		sizes[k]++
	}
	return sizes
}

// Normalize rewrites assign in place so cluster ids are 0..k-1 in order of
// first appearance, and returns the number of clusters.
func Normalize(assign []int) int {
	idx := make(map[int]int)
	for i, c := range assign {
		k, ok := idx[c]
		if !ok {
			k = len(idx)
			idx[c] = k
		}
		assign[i] = k
	}
	return len(idx)
}

// Options configures the clustering sweep.
type Options struct {
	// CandidateK lists the cluster counts to try. Empty uses the default
	// sweep's counts; the other fields are used as given.
	CandidateK []int
	// MaxClusterFrac bounds every cluster to at most this fraction of the
	// processes (0 disables the bound). The paper's tool keeps clusters
	// small enough that a failure rolls back a limited share of processes.
	MaxClusterFrac float64
	// Lambda weighs the expected-rollback fraction against the logged
	// fraction in the objective score = cut + Lambda*rollback.
	Lambda float64
	// Refinements is the number of KL refinement passes per candidate.
	Refinements int
	// Restarts is the number of random greedy seedings tried per
	// candidate k (best cut kept).
	Restarts int
	// Seed makes the sweep deterministic.
	Seed int64
}

// DefaultOptions mirrors the trade-off of the paper's tool: clusters of at
// most ~25% of the processes, mild pressure toward more, smaller clusters.
func DefaultOptions() Options {
	return Options{
		CandidateK:     []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32},
		MaxClusterFrac: 0.30,
		Lambda:         0.50,
		Refinements:    8,
		Restarts:       4,
		Seed:           1,
	}
}

// Result is the outcome of a clustering sweep.
type Result struct {
	Assign      []int
	K           int
	CutFrac     float64
	CutBytes    float64
	TotalBytes  float64
	ExpRollback float64
	Score       float64
}

// Cluster runs the sweep and returns the best-scoring partition. The
// (k, restart) candidates are independent, so they run on a GOMAXPROCS-sized
// pool; the reduction then visits them in sweep order, keeping the first
// strictly best score, so the result does not depend on the pool.
func Cluster(g *Graph, opt Options) Result {
	if len(opt.CandidateK) == 0 {
		opt.CandidateK = DefaultOptions().CandidateK
	}
	restarts := max(opt.Restarts, 1)
	type candidate struct {
		k, maxSize int
		seed       int64
	}
	var cands []candidate
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
			cands = append(cands, candidate{k, maxSize, opt.Seed + int64(31*r)})
		}
	}
	results := make([]Result, len(cands))
	forEach(len(cands), func(i int) {
		c := cands[i]
		assign := PartitionK(g, c.k, c.maxSize, opt.Refinements, c.seed)
		kk := Normalize(assign)
		cut := g.CutFraction(assign)
		rb := ExpectedRollback(assign, g.N)
		results[i] = Result{Assign: assign, K: kk, CutFrac: cut, ExpRollback: rb, Score: cut + opt.Lambda*rb}
	})
	best := Result{Score: -1}
	for _, r := range results {
		if best.Score < 0 || r.Score < best.Score {
			best = r
		}
	}
	if best.Score < 0 {
		return Result{Assign: make([]int, g.N), K: 1, ExpRollback: 1, TotalBytes: g.Total}
	}
	best.CutBytes = g.CutBytes(best.Assign)
	best.TotalBytes = g.Total
	return best
}

// forEach runs f(0..n-1) on min(GOMAXPROCS, n) goroutines, each taking the
// next index as it frees up; f must only write state owned by its index.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// PartitionK partitions g into k clusters of at most maxSize vertices using
// greedy seeded growth followed by refinement: alternating single-vertex
// move passes and pairwise swap passes (swaps escape the balance-locked
// minima that plain moves cannot leave on symmetric graphs).
func PartitionK(g *Graph, k, maxSize, refine int, seed int64) []int {
	n := g.N
	assign := greedyGrow(g, k, maxSize, seed)
	for pass := 0; pass < refine; pass++ {
		moved := klPass(g, assign, maxSize)
		swapped := swapPass(g, assign)
		if !moved && !swapped {
			break
		}
	}
	if len(assign) != n {
		panic(fmt.Sprintf("graph: partition size %d != %d", len(assign), n))
	}
	return assign
}

// greedyGrow seeds k clusters on high-traffic vertices spread apart, then
// grows them by repeatedly giving the least-filled cluster the unassigned
// vertex with the highest connectivity to it.
func greedyGrow(g *Graph, k, maxSize int, seed int64) []int {
	n := g.N
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Seed selection: highest-degree vertex first, then farthest (least
	// connected to chosen seeds) among high-degree candidates. The
	// pre-shuffle randomizes tie-breaking on symmetric graphs so restarts
	// explore different partitions.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(g.deg[b], g.deg[a]) })
	// seedConn[v] is v's traffic to the seeds chosen so far, one addition
	// per new seed, in seed order.
	seeds := make([]int, 0, k)
	isSeed := make([]bool, n)
	seedConn := make([]float64, n)
	addSeed := func(s int) {
		seeds = append(seeds, s)
		isSeed[s] = true
		for _, e := range g.adj[s] {
			seedConn[e.v] += e.w
		}
	}
	addSeed(order[0])
	for len(seeds) < k {
		bestV, bestConn := -1, 0.0
		for _, v := range order {
			if isSeed[v] {
				continue
			}
			if bestV == -1 || seedConn[v] < bestConn {
				bestV, bestConn = v, seedConn[v]
			}
		}
		if bestV == -1 {
			bestV = rng.Intn(n)
		}
		addSeed(bestV)
	}
	sizes := make([]int, k)
	for c, s := range seeds {
		assign[s] = c
		sizes[c]++
	}
	// conn[v*k+c] = traffic between v and cluster c. fronts[c] lists, in
	// no particular order, the vertices that have traffic to c (assigned
	// ones are dropped when met); every vertex off it has none.
	conn := make([]float64, n*k)
	fronts := make([][]int, k)
	for c, s := range seeds {
		for _, e := range g.adj[s] {
			conn[e.v*k+c] = e.w
			fronts[c] = append(fronts[c], e.v)
		}
	}
	first := 0 // no vertex below it is unassigned
	remaining := n - k
	for remaining > 0 {
		// Pick the least-filled cluster that can still grow.
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
			// All clusters full: dump remainder round-robin.
			for v := 0; v < n; v++ {
				if assign[v] == -1 {
					assign[v] = v % k
					remaining--
				}
			}
			break
		}
		// The unassigned vertex with the most traffic to c, the lowest id
		// on a tie: on c's frontier if that holds an unassigned vertex,
		// else the lowest unassigned id (none has traffic to c).
		f, bestV := fronts[c], -1
		for i := 0; i < len(f); {
			v := f[i]
			if assign[v] != -1 {
				f[i] = f[len(f)-1]
				f = f[:len(f)-1]
				continue
			}
			if bestV == -1 || conn[v*k+c] > conn[bestV*k+c] || (conn[v*k+c] == conn[bestV*k+c] && v < bestV) {
				bestV = v
			}
			i++
		}
		if bestV == -1 {
			for assign[first] != -1 {
				first++
			}
			bestV = first
		}
		assign[bestV] = c
		sizes[c]++
		remaining--
		for _, e := range g.adj[bestV] {
			if assign[e.v] == -1 {
				if conn[e.v*k+c] == 0 {
					f = append(f, e.v)
				}
				conn[e.v*k+c] += e.w
			}
		}
		fronts[c] = f
	}
	return assign
}

// numClusters is one more than the largest cluster id in assign.
func numClusters(assign []int) int {
	k := 0
	for _, c := range assign {
		k = max(k, c+1)
	}
	return k
}

// klPass performs one Kernighan–Lin style refinement sweep: move any vertex
// whose connectivity to another cluster exceeds its connectivity to its own
// (strictly, and respecting the size bound). Returns whether any move was
// made.
func klPass(g *Graph, assign []int, maxSize int) bool {
	k := numClusters(assign)
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	conn := make([]float64, k)
	moved := false
	for v, row := range g.adj {
		cur := assign[v]
		if sizes[cur] <= 1 {
			continue // never empty a cluster
		}
		clear(conn)
		for _, e := range row {
			conn[assign[e.v]] += e.w
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

// swapPass exchanges vertex pairs between clusters when the combined gain
// is positive; sizes are preserved so the move is always balance-feasible.
// Returns whether any swap was made.
//
// The pairs are visited in (u, v) order, as an all-pairs scan would, but a
// u that provably has no partner is skipped whole: the pair's gain is u's
// move gain toward v's cluster b plus v's move gain toward u's cluster a,
// minus twice their weight, so it cannot exceed u's gain toward b plus the
// largest gain toward a any member of b has. Rounding is monotone, so the
// bound holds for the computed floats as well.
func swapPass(g *Graph, assign []int) bool {
	const threshold = 1e-12
	n := g.N
	k := numClusters(assign)
	// conn[v*k+c]: traffic between v and cluster c.
	conn := make([]float64, n*k)
	for v, row := range g.adj {
		for _, e := range row {
			conn[v*k+assign[e.v]] += e.w
		}
	}
	// reach[a*k+b] bounds, over the members v of cluster b, v's move gain
	// toward a: conn[v][a] - conn[v][b]. It is exact when the pass starts
	// and only ever raised, whenever a swap changes a vertex's row or
	// cluster.
	reach := make([]float64, k*k)
	for i := range reach {
		reach[i] = math.Inf(-1)
	}
	raise := func(x int) {
		b, cx := assign[x], conn[x*k:x*k+k]
		for a := range cx {
			if a != b {
				reach[a*k+b] = max(reach[a*k+b], cx[a]-cx[b])
			}
		}
	}
	for x := 0; x < n; x++ {
		raise(x)
	}
	hopeless := func(u int) bool {
		a, cu := assign[u], conn[u*k:u*k+k]
		for b := range cu {
			if b != a && !(cu[b]-cu[a]+reach[a*k+b] <= threshold) {
				return false
			}
		}
		return true
	}
	// move re-files, for every vertex of row, its traffic with the vertex
	// that left cluster from for cluster to.
	move := func(row []nbr, from, to int) {
		for _, e := range row {
			conn[e.v*k+from] -= e.w
			conn[e.v*k+to] += e.w
		}
	}
	swapped := false
	for u := 0; u < n; u++ {
		if hopeless(u) {
			continue
		}
		// p walks u's row alongside v, so w is W[u][v] at O(1) amortized.
		row, p := g.adj[u], 0
		for v := u + 1; v < n; v++ {
			a, b := assign[u], assign[v]
			if a == b {
				continue
			}
			for p < len(row) && row[p].v < v {
				p++
			}
			var w float64
			if p < len(row) && row[p].v == v {
				w = row[p].w
			}
			gain := (conn[u*k+b] - conn[u*k+a]) + (conn[v*k+a] - conn[v*k+b]) - 2*w
			if gain <= threshold {
				continue
			}
			assign[u], assign[v] = b, a
			swapped = true
			move(row, a, b)
			move(g.adj[v], b, a)
			for _, e := range row {
				raise(e.v)
			}
			for _, e := range g.adj[v] {
				raise(e.v)
			}
			raise(u)
			raise(v)
			if hopeless(u) {
				break
			}
		}
	}
	return swapped
}

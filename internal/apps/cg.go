package apps

import (
	"hydee/internal/mpi"
)

// CG is the conjugate-gradient kernel. NPB CG arranges ranks in a
// npcols x nprows grid; the sparse matrix-vector product reduces partial
// sums across each grid row (log2(cols) butterfly exchanges) and exchanges
// the result with the transpose partner; two dot products reduce globally.
// Row traffic dominates, so the clustering tool finds one cluster per grid
// row (16 clusters of 16 at np=256), logging only the transpose and
// reduction traffic — the paper's 18.98%.
//
// Class D moves 2318 GB on 256 ranks; with ~2500 inner iterations that is
// ~3.6 MB per rank-iteration.
func CG() Kernel {
	const (
		classIters = 2500
		rowMsg     = 750e3 // per butterfly stage
		trMsg      = 600e3 // transpose partner exchange
		computeSec = 0.010
	)
	return Kernel{
		Name:             "cg",
		ClassIters:       classIters,
		BytesPerRankIter: 4*rowMsg + trMsg,
		Make: func(kp Params) (mpi.Program, error) {
			kp = kp.normalize()
			const (
				tagRow = 201
				tagTr  = 202
			)
			rw, tw := wire(rowMsg), wire(trMsg)
			return func(c *mpi.Comm) error {
				np := c.Size()
				rows, cols := grid2D(np)
				rank := c.Rank()
				r, col := rank/cols, rank%cols

				// Transpose partner (exists when the grid is square).
				tr := -1
				if rows == cols && np > 1 {
					tr = col*cols + r
				} else if np > 1 {
					tr = (rank + np/2) % np
				}
				return iterate(c, 8, kp.Iters, int64(6*rowMsg), func(p *proc) {
					// Row butterfly: reduce partial sums across the row.
					for k := 1; k < cols; k <<= 1 {
						if partner := col ^ k; partner < cols {
							p.swap(r*cols+partner, r*cols+partner, tagRow+k, k, rw)
						}
					}
					p.compute(kp.work(computeSec * 0.7))
					// Transpose exchange.
					if tr >= 0 && tr != rank {
						p.swap(tr, tr, tagTr, 9, tw)
					}
					p.compute(kp.work(computeSec * 0.3))
					// Two dot products per inner iteration.
					p.allreduce(8, 0)
					p.allreduce(8, 1)
				})
			}, nil
		},
	}
}

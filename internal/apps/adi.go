package apps

import (
	"hydee/internal/mpi"
)

// adi builds the BT/SP-style kernel: an alternating-direction-implicit
// solver on a 2D process grid with face exchanges along the x sweep (row
// neighbors) and the y sweep (column neighbors), plus a small global
// residual reduction. The NPB multipartition scheme concentrates traffic
// along grid rows, which is what lets the clustering tool cut the graph
// into row stripes at a low logged fraction (Table I).
func adi(name string, classIters int, xMsg, yMsg, computeSec float64) Kernel {
	return Kernel{
		Name:             name,
		ClassIters:       classIters,
		BytesPerRankIter: 2*xMsg + 2*yMsg,
		Make: func(kp Params) (mpi.Program, error) {
			kp = kp.normalize()
			const (
				tagX = 101
				tagY = 102
			)
			xw, yw := wire(xMsg), wire(yMsg)
			return func(c *mpi.Comm) error {
				rows, cols := grid2D(c.Size())
				rank := c.Rank()
				r, col := rank/cols, rank%cols
				east := r*cols + (col+1)%cols
				west := r*cols + (col-1+cols)%cols
				south := ((r+1)%rows)*cols + col
				north := ((r-1+rows)%rows)*cols + col
				return iterate(c, 8, kp.Iters, int64(4*(xMsg+yMsg)), func(p *proc) {
					// x sweep: exchange east/west faces.
					if cols > 1 {
						p.send(east, tagX, 1, xw)
						p.recv(west, tagX)
						p.send(west, tagX, 2, xw)
						p.recv(east, tagX)
					}
					p.compute(kp.work(computeSec * 0.45))
					// y sweep: exchange north/south faces.
					if rows > 1 {
						p.send(south, tagY, 3, yw)
						p.recv(north, tagY)
						p.send(north, tagY, 4, yw)
						p.recv(south, tagY)
					}
					p.compute(kp.work(computeSec * 0.45))
					// z sweep is partition-local in the multipartition
					// scheme; represented as compute.
					p.compute(kp.work(computeSec * 0.1))
					// Residual norm.
					p.allreduce(16, 0, 1)
				})
			}, nil
		},
	}
}

// BT is the block-tridiagonal solver: class D moves 791 GB over 250
// timesteps on 256 ranks (Table I), with row-heavy multipartition traffic.
func BT() Kernel {
	// 2x + 2y = 12.36 MB per rank-iteration, x:y = 2:1.
	return adi("bt", 250, 4.12e6, 2.06e6, 0.031)
}

// SP is the scalar-pentadiagonal solver: class D moves 1446 GB over 400
// timesteps on 256 ranks, with a milder row bias than BT.
func SP() Kernel {
	// 2x + 2y = 14.1 MB per rank-iteration, x:y = 2.5:1.
	return adi("sp", 400, 5.04e6, 2.014e6, 0.035)
}

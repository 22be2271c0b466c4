package apps

import (
	"hydee/internal/mpi"
)

// LU is the SSOR solver. Its lower- and upper-triangular sweeps form a
// pipelined wavefront across the 2D process grid: each rank receives from
// its north and west neighbors, relaxes a block of k-planes, and forwards
// to south and east (the upper sweep runs the reverse diagonal). This is
// the longest causal chain of the six kernels — ideal for exercising phase
// propagation. Traffic is row-biased, so the clustering tool cuts the grid
// into row stripes (8 clusters of 32, 13.26% logged in Table I).
//
// Class D moves 337 GB on 256 ranks over ~300 timesteps: ~4.4 MB per
// rank-iteration, in many medium-sized pipeline messages.
func LU() Kernel {
	const (
		classIters = 300
		steps      = 16    // wavefront k-plane blocks per sweep
		southMsg   = 34e3  // per-step column-direction message
		eastMsg    = 103e3 // per-step row-direction message (3x heavier)
		computeSec = 0.012
	)
	return Kernel{
		Name:             "lu",
		ClassIters:       classIters,
		BytesPerRankIter: 2 * steps * (southMsg + eastMsg),
		Make: func(kp Params) (mpi.Program, error) {
			kp = kp.normalize()
			const (
				tagLow = 301
				tagUp  = 302
			)
			sw, ew := wire(southMsg), wire(eastMsg)
			stepCompute := kp.work(computeSec / (2 * steps))
			return func(c *mpi.Comm) error {
				np := c.Size()
				rows, cols := grid2D(np)
				rank := c.Rank()
				r, col := rank/cols, rank%cols
				north, south := -1, -1
				west, east := -1, -1
				if r > 0 {
					north = (r-1)*cols + col
				}
				if r < rows-1 {
					south = (r+1)*cols + col
				}
				if col > 0 {
					west = r*cols + (col - 1)
				}
				if col < cols-1 {
					east = r*cols + (col + 1)
				}
				// sweep is one triangular sweep: per k-plane block,
				// receive from the upstream column and row neighbors,
				// relax, and forward downstream, the column message salted
				// s+salt and the row message s+salt+1. An absent neighbor
				// is -1.
				sweep := func(p *proc, colIn, rowIn, colOut, rowOut, tag, salt int) {
					for s := 0; s < steps; s++ {
						if colIn >= 0 {
							p.recv(colIn, tag)
						}
						if rowIn >= 0 {
							p.recv(rowIn, tag)
						}
						p.compute(stepCompute)
						if colOut >= 0 {
							p.send(colOut, tag, s+salt, sw)
						}
						if rowOut >= 0 {
							p.send(rowOut, tag, s+salt+1, ew)
						}
					}
				}
				return iterate(c, 8, kp.Iters, int64(steps*(southMsg+eastMsg)), func(p *proc) {
					// Lower-triangular sweep: wavefront from (0,0).
					sweep(p, north, west, south, east, tagLow, 0)
					// Upper-triangular sweep: wavefront from (rows-1,cols-1).
					sweep(p, south, east, north, west, tagUp, 2)
					// Residual norm.
					p.allreduce(16, 0, 3)
				})
			}, nil
		},
	}
}

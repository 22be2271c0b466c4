package apps

import (
	"hydee/internal/mpi"
)

// MG is the multigrid V-cycle kernel on a 3D process grid: at every grid
// level each rank exchanges its six faces with its neighbors, with face
// sizes shrinking by 4x per coarser level. The z faces are the smallest
// (the paper's 256-rank runs use an 8x8x4 grid), so the clustering tool
// cuts the grid into z slabs: 4 clusters of 64, logging ~20% (Table I).
//
// Class D moves 66 GB on 256 ranks; with ~50 V-cycles that is ~5.2 MB per
// rank-iteration.
func MG() Kernel {
	const (
		classIters = 50
		faceXY     = 800e3 // finest-level x/y face
		faceZ      = 400e3 // finest-level z face
		levels     = 3
		computeSec = 0.014
	)
	var perIter float64
	scale := 1.0
	for l := 0; l < levels; l++ {
		perIter += 2 * (2*faceXY + faceZ) * scale
		scale /= 4
	}
	return Kernel{
		Name:             "mg",
		ClassIters:       classIters,
		BytesPerRankIter: perIter,
		Make: func(kp Params) (mpi.Program, error) {
			kp = kp.normalize()
			const tagMG = 401
			return func(c *mpi.Comm) error {
				np := c.Size()
				nx, ny, nz := grid3D(np)
				rank := c.Rank()
				// rank = (z*ny + y)*nx + x
				x := rank % nx
				y := (rank / nx) % ny
				z := rank / (nx * ny)
				at := func(xx, yy, zz int) int {
					return (zz*ny+yy)*nx + xx
				}
				xp, xm := at((x+1)%nx, y, z), at((x-1+nx)%nx, y, z)
				yp, ym := at(x, (y+1)%ny, z), at(x, (y-1+ny)%ny, z)
				zp, zm := at(x, y, (z+1)%nz), at(x, y, (z-1+nz)%nz)
				// exchange swaps both faces of one dimension; a dimension
				// of extent 1 has none.
				exchange := func(p *proc, plus, minus, w, tag, salt int) {
					if plus != rank {
						p.swap(plus, minus, tag, salt, w)
						p.swap(minus, plus, tag+1, salt+1, w)
					}
				}
				return iterate(c, 8, kp.Iters, int64(2*(2*faceXY+faceZ)), func(p *proc) {
					lscale := 1.0
					for l := 0; l < levels; l++ {
						wxy, wz := wire(faceXY*lscale), wire(faceZ*lscale)
						tag := tagMG + 10*l
						exchange(p, xp, xm, wxy, tag, l)
						exchange(p, yp, ym, wxy, tag+2, l+3)
						exchange(p, zp, zm, wz, tag+4, l+5)
						p.compute(kp.work(computeSec / levels))
						lscale /= 4
					}
					// Norm check.
					p.allreduce(8, 2)
				})
			}, nil
		},
	}
}

package apps

import (
	"hydee/internal/mpi"
)

// FT is the 3D FFT kernel. Its distributed transpose is a global
// all-to-all: every rank sends a block to every other rank each timestep.
// No partition of an all-to-all graph has a small cut, which is why the
// clustering tool settles for two clusters and a ~50% logged fraction
// (Table I) — the paper's worst case.
//
// Class D on 256 ranks moves 860 GB over ~25 iterations: each rank's local
// slab is ~134 MB, re-distributed once per timestep (~527 KB per peer).
func FT() Kernel {
	const (
		classIters = 25
		slabBytes  = 134e6
		computeSec = 0.30
	)
	return Kernel{
		Name:             "ft",
		ClassIters:       classIters,
		BytesPerRankIter: slabBytes,
		Make: func(kp Params) (mpi.Program, error) {
			kp = kp.normalize()
			return func(c *mpi.Comm) error {
				np := c.Size()
				rank := c.Rank()
				blockWire := wire(slabBytes / float64(np))
				// The transpose's blocks: one backing array, rewritten
				// every step (Alltoall copies what it sends).
				blocks := make([][]byte, np)
				backing := make([]byte, np*8*payloadFloats)
				for d := range blocks {
					blocks[d] = backing[d*8*payloadFloats : (d+1)*8*payloadFloats]
				}
				return iterate(c, 8, kp.Iters, int64(slabBytes), func(p *proc) {
					// Local 1D FFTs.
					p.compute(kp.work(computeSec * 0.5))
					// Distributed transpose: global all-to-all.
					if p.err == nil {
						for d, b := range blocks {
							p.st.put(b, d)
						}
						var got [][]byte
						got, p.err = c.Alltoall(blocks, blockWire)
						for s, b := range got {
							if s == rank || b == nil || p.err != nil {
								continue
							}
							// Commutative fold of the first float: the
							// pairwise exchange defines the order
							// deterministically anyway.
							p.fold(b[:8], nil)
						}
					}
					// Remaining FFT dimension.
					p.compute(kp.work(computeSec * 0.5))
					// Checksum.
					p.allreduce(8, 0)
				})
			}, nil
		},
	}
}

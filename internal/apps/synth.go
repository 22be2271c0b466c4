package apps

import (
	"fmt"
	"math"
	"math/rand"

	"hydee/internal/mpi"
	"hydee/internal/trace"
)

// Synthetic applications used by tests, examples and the property suite.

// Ring builds a token-accumulation ring: iteration i, each rank sends its
// accumulator to (rank+1)%np and folds in the value from (rank-1+np)%np.
func Ring(iters, msgBytes int) mpi.Program {
	return func(c *mpi.Comm) error {
		np := c.Size()
		next, prev := (c.Rank()+1)%np, (c.Rank()-1+np)%np
		return iterate(c, 4, iters, 0, func(p *proc) {
			if np > 1 {
				p.send(next, 11, p.st.Iter, msgBytes)
				p.recv(prev, 11)
			}
		})
	}
}

// PingPong builds the NetPIPE ping-pong of Figure 5 between ranks 0 and
// 1: reps round trips of an 8-byte payload modelled at size bytes, rank 0
// sending first.
func PingPong(reps, size int) mpi.Program {
	return func(c *mpi.Comm) error {
		const tag = 51
		payload := make([]byte, 8)
		peer := 1 - c.Rank()
		for i := 0; i < reps; i++ {
			if c.Rank() == 1 {
				if _, _, err := c.Recv(peer, tag); err != nil {
					return err
				}
			}
			if err := c.SendW(peer, tag, payload, size); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if _, _, err := c.Recv(peer, tag); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// Stencil2D builds a 4-neighbor halo-exchange iteration on a 2D torus,
// the generic pattern the paper's introduction motivates.
func Stencil2D(iters, msgBytes int) mpi.Program {
	return func(c *mpi.Comm) error {
		rows, cols := grid2D(c.Size())
		rank := c.Rank()
		r, col := rank/cols, rank%cols
		east := r*cols + (col+1)%cols
		west := r*cols + (col-1+cols)%cols
		south := ((r+1)%rows)*cols + col
		north := ((r-1+rows)%rows)*cols + col
		const tag = 21
		return iterate(c, 8, iters, 0, func(p *proc) {
			if cols > 1 {
				p.swap(east, west, tag, 0, msgBytes)
				p.swap(west, east, tag+1, 1, msgBytes)
			}
			if rows > 1 {
				p.swap(south, north, tag+2, 2, msgBytes)
				p.swap(north, south, tag+3, 3, msgBytes)
			}
		})
	}
}

// MasterWorker builds the one pattern the send-deterministic model excludes
// (§II-B): rank 0 hands tasks to whichever worker answers first
// (MPI_ANY_SOURCE), so the sequence of sends depends on message arrival
// order. Used as a negative control in the determinism tests.
func MasterWorker(tasks int) mpi.Program {
	return func(c *mpi.Comm) error {
		np := c.Size()
		if np < 2 {
			return fmt.Errorf("apps: masterworker needs at least 2 ranks")
		}
		const (
			tagTask = 31
			tagDone = 32
			tagStop = 33
		)
		if c.Rank() == 0 {
			issued := 0
			// Prime one task per worker.
			for w := 1; w < np && issued < tasks; w++ {
				if err := c.Send(w, tagTask, mpi.Float64sToBytes([]float64{float64(issued)})); err != nil {
					return err
				}
				issued++
			}
			var order []int
			// Every issued task produces exactly one completion.
			for done := 0; done < tasks; done++ {
				got, stat, err := c.Recv(mpi.AnySource, tagDone)
				if err != nil {
					return err
				}
				_ = got
				order = append(order, stat.Source)
				if issued < tasks {
					if err := c.Send(stat.Source, tagTask, mpi.Float64sToBytes([]float64{float64(issued)})); err != nil {
						return err
					}
					issued++
				}
			}
			for w := 1; w < np; w++ {
				if err := c.Send(w, tagStop, nil); err != nil {
					return err
				}
			}
			c.SetResult(fmt.Sprintf("%v", order))
			return nil
		}
		var acc float64
		for {
			data, stat, err := c.Recv(0, mpi.AnyTag)
			if err != nil {
				return err
			}
			if stat.Tag == tagStop {
				break
			}
			in, err := mpi.BytesToFloat64s(data)
			if err != nil {
				return err
			}
			acc += in[0]
			if err := c.Send(0, tagDone, mpi.Float64sToBytes([]float64{acc})); err != nil {
				return err
			}
		}
		c.SetResult(acc)
		return nil
	}
}

// RandomDAG builds a seeded random—but send-deterministic—communication
// pattern for the property tests. Every rank derives the same global
// schedule from the seed: each round lists directed (src, dst) pairs. A
// receiver posts one wildcard receive per expected message and folds
// payloads commutatively, so delivery order (which genuinely varies between
// runs) cannot influence what it later sends — the defining property of
// Definition 3.
func RandomDAG(seed int64, rounds, maxFanout, msgBytes int) mpi.Program {
	return func(c *mpi.Comm) error {
		np := c.Size()
		rank := c.Rank()
		rng := rand.New(rand.NewSource(seed))
		// Global schedule: schedule[round][src] = destinations.
		sched := make([][][]int, rounds)
		for rd := range sched {
			sched[rd] = make([][]int, np)
			for src := 0; src < np; src++ {
				n := rng.Intn(maxFanout + 1)
				for k := 0; k < n; k++ {
					dst := rng.Intn(np)
					if dst != src {
						sched[rd][src] = append(sched[rd][src], dst)
					}
				}
			}
		}
		return iterate(c, 8, rounds, 0, func(p *proc) {
			rd := p.st.Iter
			// The tag encodes the round so a fast sender's next-round
			// message cannot match this round's wildcard receives.
			tag := 41_000 + rd
			// Sends first: payload depends only on the state before this
			// round's receives.
			for _, dst := range sched[rd][rank] {
				p.send(dst, tag, rd, msgBytes)
			}
			// Count expected messages and receive them in arrival order.
			expected := 0
			for src := 0; src < np; src++ {
				for _, dst := range sched[rd][src] {
					if dst == rank {
						expected++
					}
				}
			}
			// Exactly order-independent fold: uint64 wraparound addition
			// of payload hashes. Floating-point addition would leak the
			// arrival order through rounding and break send-determinism.
			var sum uint64
			for k := 0; k < expected && p.err == nil; k++ {
				var got []byte
				got, _, p.err = c.Recv(mpi.AnySource, tag)
				sum += trace.PayloadDigest(got)
			}
			idx := rd % len(p.st.V)
			p.st.V[idx] = float64((math.Float64bits(p.st.V[idx]) + sum) % (1 << 40))
		})
	}
}

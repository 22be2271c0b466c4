package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hydee"
)

// The benchmark-owned application: a halo exchange over a fixed list of
// (send-to, receive-from) neighbour pairs per iteration — four pairs on a
// 2D torus for the stencil workloads, one pair on a ring for the
// checkpoint workload. Comm is a concrete type, so timing an application's
// Comm calls from outside the repository's packages needs a program the
// benchmark owns; the per-message path through mpi/core/transport is the
// one apps.Stencil2D takes (SendW + Recv + Checkpoint per step).
//
// Because the program is ours, its result has an independent oracle:
// haloOracle computes every rank's final accumulator with a plain
// sequential loop, no simulator involved. A recovered run must reproduce
// it exactly (send-determinism, the paper's correctness claim).

// haloState is the registered (checkpointed) process image.
type haloState struct {
	Iter int
	Acc  uint64
	// Image is an opaque block the checkpoint has to carry; its bytes come
	// from the workload seed and never change during the run.
	Image []byte
}

// haloPayloadLen is the real payload per message; the modeled wire size is
// the workload's msgBytes.
const haloPayloadLen = 32

type haloSpec struct {
	np, iters, msgBytes int
	// pairs lists, per rank, the (dst, src) of each exchange of one
	// iteration, in program order.
	pairs func(rank int) [][2]int
	// image returns the rank's opaque image (nil for none).
	image func(rank int) []byte
}

func mix(a, b uint64) uint64 {
	a ^= b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2)
	return a * 0xff51afd7ed558ccd
}

func haloPayload(acc uint64, iter, exch int) []byte {
	b := make([]byte, haloPayloadLen)
	x := mix(acc, uint64(iter)<<8|uint64(exch))
	for i := 0; i < haloPayloadLen; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x)
		x = mix(x, uint64(i))
	}
	return b
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func haloInit(rank int) uint64 { return mix(uint64(rank)+1, 0x5851f42d4c957f2d) }

// program builds the rank program. rt is nil on untraced runs; on traced
// runs every Comm call is timed into goroutine-local aggregates.
func (h haloSpec) program(rt *runTrace) hydee.Program {
	const tag = 31
	return func(c *hydee.Comm) (err error) {
		rank := c.Rank()
		var tm *rankTimer
		if rt != nil {
			tm = rt.rankStart(rank)
			defer tm.finish()
		}
		st := &haloState{Acc: haloInit(rank)}
		restored, err := c.Restore(st)
		if err != nil {
			return err
		}
		if !restored {
			st.Image = h.image(rank)
		}
		pairs := h.pairs(rank)
		for st.Iter < h.iters {
			for j, p := range pairs {
				out := haloPayload(st.Acc, st.Iter, j)
				var t0 time.Time
				if tm != nil {
					t0 = time.Now()
				}
				if err := c.SendW(p[0], tag+j, out, h.msgBytes); err != nil {
					return err
				}
				if tm != nil {
					t1 := time.Now()
					tm.send.add(t1.Sub(t0))
					t0 = t1
				}
				in, _, err := c.Recv(p[1], tag+j)
				if err != nil {
					return err
				}
				if tm != nil {
					tm.recv.add(time.Since(t0))
				}
				st.Acc = mix(st.Acc, hash64(in))
			}
			st.Iter++
			if tm != nil {
				tm.checkpointBegin()
			}
			err := c.Checkpoint()
			if tm != nil {
				tm.checkpointEnd()
			}
			if err != nil {
				return err
			}
		}
		c.SetResult(mix(st.Acc, hash64(st.Image)))
		return nil
	}
}

// haloOracle is the reference model: the per-rank results of a
// failure-free execution, computed sequentially.
func (h haloSpec) oracle() []any {
	acc := make([]uint64, h.np)
	pairs := make([][][2]int, h.np)
	for r := range acc {
		acc[r] = haloInit(r)
		pairs[r] = h.pairs(r)
	}
	in := make([]uint64, h.np)
	for it := 0; it < h.iters; it++ {
		for j := range pairs[0] {
			for r := range acc {
				src := pairs[r][j][1]
				in[r] = hash64(haloPayload(acc[src], it, j))
			}
			for r := range acc {
				acc[r] = mix(acc[r], in[r])
			}
		}
	}
	out := make([]any, h.np)
	for r := range out {
		out[r] = mix(acc[r], hash64(h.image(r)))
	}
	return out
}

// torusPairs is the 4-neighbour exchange of a rows×cols torus, in the
// order east, west, south, north (each paired with the opposite source).
func torusPairs(rows, cols int) func(rank int) [][2]int {
	return func(rank int) [][2]int {
		r, c := rank/cols, rank%cols
		east := r*cols + (c+1)%cols
		west := r*cols + (c-1+cols)%cols
		south := ((r+1)%rows)*cols + c
		north := ((r-1+rows)%rows)*cols + c
		return [][2]int{{east, west}, {west, east}, {south, north}, {north, south}}
	}
}

func ringPairs(np int) func(rank int) [][2]int {
	return func(rank int) [][2]int {
		return [][2]int{{(rank + 1) % np, (rank - 1 + np) % np}}
	}
}

// grid factors np into the most square rows×cols.
func grid(np int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= np; d++ {
		if np%d == 0 {
			rows = d
		}
	}
	return rows, np / rows
}

// blockAssign puts ranks into contiguous clusters of the given size.
func blockAssign(np, clusterSize int) []int {
	assign := make([]int, np)
	for r := range assign {
		assign[r] = r / clusterSize
	}
	return assign
}

// seededImages draws one opaque image per rank from the seed.
func seededImages(seed int64, np, bytes int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, np)
	for r := range out {
		out[r] = make([]byte, bytes)
		rng.Read(out[r])
	}
	return out
}

func sameResults(got, want []any) error {
	if len(got) != len(want) {
		return fmt.Errorf("result count %d, want %d", len(got), len(want))
	}
	for r := range got {
		if got[r] != want[r] {
			return fmt.Errorf("rank %d result %v, oracle %v", r, got[r], want[r])
		}
	}
	return nil
}

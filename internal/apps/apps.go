// Package apps provides send-deterministic communication kernels modeled on
// the six NAS Parallel Benchmarks the paper evaluates (BT, CG, FT, LU, MG,
// SP; class D on 256 processes), plus small synthetic applications used by
// the tests.
//
// Each kernel reproduces the benchmark's communication *pattern* (who talks
// to whom, how often) and its class-D communication *volume* (via modeled
// wire sizes), while computing on a small real state vector so that the
// recovered execution can be validated bit-for-bit against a failure-free
// run. Per-iteration compute time is calibrated so communication is a
// realistic fraction of the runtime; virtual time makes the absolute scale
// free.
//
// All kernels are send-deterministic: receives are source- and
// tag-directed, and the data sent never depends on the order in which
// non-causally-related messages were delivered. The master/worker app is
// the deliberate exception (§II-B: the only class of applications the model
// excludes).
package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"hydee/internal/mpi"
	"hydee/internal/vtime"
)

// Params scales a kernel run.
type Params struct {
	// NP is the number of ranks.
	NP int
	// Iters is the number of timesteps to execute (the class-D iteration
	// count is Kernel.ClassIters; volumes extrapolate linearly).
	Iters int
	// ComputeScale multiplies per-iteration compute time (default 1).
	ComputeScale float64
}

func (p Params) normalize() Params {
	if p.ComputeScale <= 0 {
		p.ComputeScale = 1
	}
	if p.Iters <= 0 {
		p.Iters = 1
	}
	return p
}

// work converts seconds of class-D work through the compute scale.
func (p Params) work(sec float64) vtime.Duration {
	return vtime.Duration(sec * p.ComputeScale * 1e9)
}

// Kernel describes one benchmark.
type Kernel struct {
	// Name is the NPB name (lowercase).
	Name string
	// ClassIters is the class-D iteration count, used to extrapolate
	// whole-run volumes from short runs.
	ClassIters int
	// BytesPerRankIter is the modeled class-D communication volume one
	// rank sends per iteration (all messages summed).
	BytesPerRankIter float64
	// Make builds the rank program.
	Make func(p Params) (mpi.Program, error)
}

// State is the checkpointable per-rank state shared by all kernels.
type State struct {
	Iter int
	V    []float64
}

// digest produces the rank's result fingerprint.
func (s *State) digest(rank int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(rank))
	put(uint64(s.Iter))
	for _, v := range s.V {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// fold mixes received floats into the state deterministically.
func (s *State) fold(in []float64) {
	for i, v := range in {
		j := i % len(s.V)
		s.V[j] = s.V[j]*0.75 + v*0.25 + 1e-6*float64(j+1)
	}
}

// put writes a small real payload derived from the state into b: its
// len(b)/8 floats salted by salt, little-endian.
func (s *State) put(b []byte, salt int) {
	for i := range len(b) / 8 {
		x := s.V[(i+salt)%len(s.V)] + float64(salt)*1e-9
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

func newState(rank, width int) *State {
	v := make([]float64, width)
	for i := range v {
		v[i] = float64(rank+1) * (1.0 + float64(i)*0.01)
	}
	return &State{V: v}
}

// payloadFloats is the real payload width (floats) of kernel messages.
const payloadFloats = 4

// grid2D factors np into a near-square rows x cols grid.
func grid2D(np int) (rows, cols int) {
	r := int(math.Sqrt(float64(np)))
	for r > 1 && np%r != 0 {
		r--
	}
	if r < 1 {
		r = 1
	}
	return r, np / r
}

// grid3D factors np into near-cubic x*y*z.
func grid3D(np int) (x, y, z int) {
	z = int(math.Cbrt(float64(np)))
	for z > 1 && np%z != 0 {
		z--
	}
	if z < 1 {
		z = 1
	}
	rem := np / z
	x, y = grid2D(rem)
	return x, y, z
}

// wire is a modeled message size, never below the real payload.
func wire(bytes float64) int {
	return max(int(bytes), 8*payloadFloats)
}

// proc runs one rank's timestep as the operations it makes, in order. It
// keeps the first error; every operation after it does nothing.
type proc struct {
	c   *mpi.Comm
	st  *State
	err error
	// buf and in are the rank's own, rewritten every message: buf holds
	// the payload a send encodes (SendW copies it), in the floats a fold
	// decodes.
	buf [8 * payloadFloats]byte
	in  []float64
}

// send sends dst a payload of the state salted by salt, modeled at w
// bytes.
func (p *proc) send(dst, tag, salt, w int) {
	if p.err == nil {
		p.st.put(p.buf[:], salt)
		p.err = p.c.SendW(dst, tag, p.buf[:], w)
	}
}

// recv receives from src and folds the payload into the state.
func (p *proc) recv(src, tag int) {
	if p.err == nil {
		got, _, err := p.c.Recv(src, tag)
		p.fold(got, err)
	}
}

// swap sends to dst and receives from src under one tag (SendRecvW), then
// folds what it received.
func (p *proc) swap(dst, src, tag, salt, w int) {
	if p.err == nil {
		p.st.put(p.buf[:], salt)
		got, err := p.c.SendRecvW(dst, tag, p.buf[:], w, src, tag)
		p.fold(got, err)
	}
}

// fold decodes a received payload into the state.
func (p *proc) fold(b []byte, err error) {
	if err == nil {
		p.in, err = mpi.DecodeFloat64s(p.in, b)
	}
	if p.err = err; err == nil {
		p.st.fold(p.in)
	}
}

// compute advances the rank's clock by d of local work.
func (p *proc) compute(d vtime.Duration) {
	if p.err == nil {
		p.err = p.c.Compute(d)
	}
}

// allreduce sums the state entries idx across all ranks, modeled at w
// bytes, and folds the sums into the state.
func (p *proc) allreduce(w int, idx ...int) {
	if p.err != nil {
		return
	}
	in := make([]float64, len(idx))
	for i, j := range idx {
		in[i] = p.st.V[j]
	}
	res, err := p.c.Allreduce(in, mpi.OpSum, w)
	if p.err = err; err == nil {
		p.st.fold(res)
	}
}

// iterate is the timestep loop of every send-deterministic program: it
// creates the rank's state (width floats), restores it from a checkpoint
// when the rank restarts, and declares a modeled image of image bytes
// when image > 0. It then runs step until iters timesteps are done. After
// each step it increments the iteration counter before calling
// Checkpoint, which is the contract Comm.Checkpoint states: a restart
// resumes with the next step, never re-executes one. Last it publishes
// the state's digest as the rank's result.
func iterate(c *mpi.Comm, width, iters int, image int64, step func(p *proc)) error {
	p := &proc{c: c, st: newState(c.Rank(), width)}
	if _, err := c.Restore(p.st); err != nil {
		return err
	}
	if image > 0 {
		c.SetStateBytes(image)
	}
	for p.st.Iter < iters {
		if step(p); p.err != nil {
			return p.err
		}
		p.st.Iter++
		if err := c.Checkpoint(); err != nil {
			return err
		}
	}
	c.SetResult(p.st.digest(c.Rank()))
	return nil
}

// Registry lists the six NAS kernels in the paper's Table I order.
func Registry() []Kernel {
	return []Kernel{BT(), CG(), FT(), LU(), MG(), SP()}
}

// Get returns the kernel with the given name, in any letter case.
func Get(name string) (Kernel, error) {
	for _, k := range Registry() {
		if k.Name == strings.ToLower(name) {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("apps: unknown kernel %q", name)
}

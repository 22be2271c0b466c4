package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hydee/internal/checkpoint"
	"hydee/internal/vtime"
)

// Wildcards for Recv.
const (
	// AnySource matches any sender (MPI_ANY_SOURCE). Send-deterministic
	// applications may use it when the reception order has no impact on
	// the messages they send (§II-C).
	AnySource = -1
	// AnyTag matches any tag.
	AnyTag = -1
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	// Bytes is the modeled payload size.
	Bytes int
}

// Comm is the communicator handed to a Program: an MPI-like interface over
// the simulated process.
type Comm struct {
	p *Proc
}

// Rank is the calling process's rank.
func (c *Comm) Rank() int { return c.p.rank }

// Size is the number of application processes.
func (c *Comm) Size() int { return c.p.rt.cfg.NP }

// Cluster is the calling process's cluster id.
func (c *Comm) Cluster() int { return c.p.cluster() }

// ClusterOf reports the cluster of any rank.
func (c *Comm) ClusterOf(rank int) int { return c.p.rt.topo.ClusterOf[rank] }

// Now is the process's current virtual time.
func (c *Comm) Now() vtime.Time { return c.p.clock.Now() }

// Restarted reports whether this incarnation was restarted after a failure.
func (c *Comm) Restarted() bool { return c.p.round != nil }

// Send posts a message of len(data) modeled bytes.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.p.send(dst, tag, data, 0)
}

// SendW posts a message whose modeled size is wireBytes while carrying the
// (possibly smaller) real payload data. The kernels use it to reproduce the
// paper's class-D communication volumes without moving gigabytes.
func (c *Comm) SendW(dst, tag int, data []byte, wireBytes int) error {
	return c.p.send(dst, tag, data, wireBytes)
}

// Recv blocks until a message matching (src, tag) is delivered. src may be
// AnySource and tag AnyTag.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	m, err := c.p.recvMatch(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	data, st := m.Data, Status{Source: m.Src, Tag: m.Tag, Bytes: m.WireLen}
	c.p.rt.release(m)
	return data, st, nil
}

// Compute advances the process's virtual clock by d of local work.
func (c *Comm) Compute(d vtime.Duration) error {
	c.p.clock.Advance(d)
	return c.p.maybeFail()
}

// Checkpoint is the cooperative checkpoint point. All processes must call
// it collectively the same number of times; whether a call actually takes a
// coordinated checkpoint is decided by the configured schedule.
//
// Contract: at the call, the registered state (see Restore) must fully
// describe the work that remains — typically, increment the iteration
// counter before calling Checkpoint. If the state still describes an
// iteration whose communication already happened, a restart re-executes
// sends and receives the protocol has already accounted for, and the
// recovered execution diverges.
func (c *Comm) Checkpoint() error { return c.p.checkpointCall() }

// Restore registers state as the process image for checkpointing and, when
// this incarnation restarts from a checkpoint, decodes the saved image into
// it. It reports whether state was loaded.
func (c *Comm) Restore(state any) (bool, error) {
	c.p.stateTarget = state
	s := c.p.snapshot
	if s == nil || len(s.AppState) == 0 {
		return false, nil
	}
	if err := checkpoint.DecodeState(s.AppState, state); err != nil {
		return false, err
	}
	return true, nil
}

// SetStateBytes declares the modeled size of the process image, used by the
// storage cost model (a class-D rank image is far larger than the small
// simulated state).
func (c *Comm) SetStateBytes(n int64) { c.p.stateBytes = n }

// SetResult stores the rank's final result (e.g. a state digest); the
// experiments compare results across runs to validate recovery.
func (c *Comm) SetResult(v any) {
	c.p.result = v
	c.p.resultSet = true
}

// Request is a nonblocking operation handle.
type Request struct {
	c      *Comm
	isRecv bool
	src    int
	tag    int
	data   []byte
	status Status
	done   bool
	err    error
}

// Isend posts a send immediately (eager buffering makes sends nonblocking)
// and returns a completed request.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return c.IsendW(dst, tag, data, 0)
}

// IsendW is Isend with a modeled wire size.
func (c *Comm) IsendW(dst, tag int, data []byte, wireBytes int) *Request {
	err := c.p.send(dst, tag, data, wireBytes)
	return &Request{c: c, done: true, err: err}
}

// Irecv posts a receive request; the matching happens at Wait.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{c: c, isRecv: true, src: src, tag: tag}
}

// Wait completes the request and returns its data (receives only).
func (r *Request) Wait() ([]byte, Status, error) {
	if r.done {
		return r.data, r.status, r.err
	}
	r.done = true
	if r.isRecv {
		r.data, r.status, r.err = r.c.Recv(r.src, r.tag)
	}
	return r.data, r.status, r.err
}

// WaitAll completes all requests, returning the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SendRecv sends to dst and receives from src (deadlock-free because sends
// are eager).
func (c *Comm) SendRecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	return c.SendRecvW(dst, sendTag, data, 0, src, recvTag)
}

// SendRecvW is SendRecv with a modeled wire size for the outgoing message.
func (c *Comm) SendRecvW(dst, sendTag int, data []byte, wireBytes, src, recvTag int) ([]byte, error) {
	if err := c.p.send(dst, sendTag, data, wireBytes); err != nil {
		return nil, err
	}
	got, _, err := c.Recv(src, recvTag)
	return got, err
}

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesToFloat64s decodes a little-endian float64 slice.
func BytesToFloat64s(b []byte) ([]float64, error) {
	return DecodeFloat64s(make([]float64, 0, len(b)/8), b)
}

// DecodeFloat64s is BytesToFloat64s into dst's storage: it decodes b over
// dst[:0], growing it only when b holds more floats than cap(dst).
func DecodeFloat64s(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float payload length %d not a multiple of 8", len(b))
	}
	v := slices.Grow(dst[:0], len(b)/8)[:len(b)/8]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, nil
}

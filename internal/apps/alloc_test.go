package apps

import (
	"testing"

	"hydee/internal/mpi"
	"hydee/internal/rollback"
)

// TestMessageStepAllocatesOnePayload pins the kernels' message step —
// proc.send, then proc.recv and its fold — at one allocation per message:
// the copy SendW makes of the payload, which the receiver (and a
// sender-based log) keeps. The payload's encode and decode use the rank's
// buffers, and the envelope is one the run recycled.
func TestMessageStepAllocatesOnePayload(t *testing.T) {
	const runs = 200
	var perStep float64
	prog := func(c *mpi.Comm) error {
		p := &proc{c: c, st: newState(c.Rank(), 4)}
		peer := 1 - c.Rank()
		step := func() {
			p.send(peer, 7, p.st.Iter, 64)
			p.recv(peer, 7)
		}
		if c.Rank() == 0 {
			perStep = testing.AllocsPerRun(runs, step)
		} else {
			for range runs + 1 { // AllocsPerRun's warm-up call, then runs
				step()
			}
		}
		return p.err
	}
	if _, err := mpi.Run(mpi.Config{NP: 2, Protocol: rollback.Native()}, prog); err != nil {
		t.Fatal(err)
	}
	// A step is two messages, one from each rank.
	if perStep > 2 {
		t.Errorf("%.0f allocations per step of two messages, want at most 2", perStep)
	}
}

// Package netpipe reimplements the NetPIPE measurement procedure (Snell et
// al.) over the simulated network: a two-process ping-pong sweep over
// message sizes, reporting one-way latency and bandwidth. Figure 5 of the
// paper compares native MPICH2 against HydEE between two processes of the
// same cluster (piggybacking, no logging) and of different clusters
// (piggybacking and sender-based logging).
package netpipe

import (
	"context"
	"fmt"

	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

// Config describes one sweep.
type Config struct {
	// Model is the network cost model (required).
	Model netmodel.Model
	// Protocol is the rollback protocol; nil means native.
	Protocol rollback.Protocol
	// SameCluster puts both endpoints in one cluster (no logging);
	// otherwise each is its own cluster (logging). Ignored for native.
	SameCluster bool
	// Sizes lists payload sizes in bytes; nil uses StandardSizes.
	Sizes []int
	// Reps is the number of round trips per size (default 10).
	Reps int
}

// Point is one measurement.
type Point struct {
	Bytes int
	// LatencyUs is the one-way latency in microseconds.
	LatencyUs float64
	// BandwidthMBps is Bytes / one-way latency, in MB/s.
	BandwidthMBps float64
}

// StandardSizes returns a NetPIPE-like size sweep: powers of two from 1 B
// to 8 MiB with intermediate 3/4 points, plus the sizes straddling the
// piggyback-relevant plateau boundaries.
func StandardSizes() []int {
	var sizes []int
	add := func(n int) {
		if n < 1 || n > 8<<20 {
			return
		}
		for _, s := range sizes {
			if s == n {
				return
			}
		}
		sizes = append(sizes, n)
	}
	for n := 1; n <= 8<<20; n <<= 1 {
		add(n)
		add(n * 3 / 2)
	}
	// Boundary straddles where a 16-byte piggyback changes the plateau.
	for _, b := range []int{32, 128, 1024, 32 * 1024} {
		add(b - netmodel.PiggybackBytes)
		add(b - netmodel.PiggybackBytes + 1)
		add(b)
		add(b + 1)
	}
	// Keep ascending order.
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}

func pingpong(reps, size int) mpi.Program {
	return func(c *mpi.Comm) error {
		const tag = 51
		payload := make([]byte, 8)
		if c.Rank() == 0 {
			for i := 0; i < reps; i++ {
				if err := c.SendW(1, tag, payload, size); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, tag); err != nil {
					return err
				}
			}
		} else {
			for i := 0; i < reps; i++ {
				if _, _, err := c.Recv(0, tag); err != nil {
					return err
				}
				if err := c.SendW(0, tag, payload, size); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// RunCtx executes the sweep, honoring ctx between and during size points.
func RunCtx(ctx context.Context, cfg Config) ([]Point, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("netpipe: model required")
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 10
	}
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = StandardSizes()
	}
	topo := rollback.NewTopology([]int{0, 1})
	if cfg.SameCluster {
		topo = rollback.SingleCluster(2)
	}
	prot := cfg.Protocol
	if prot == nil {
		prot = rollback.Native()
	}
	out := make([]Point, 0, len(sizes))
	for _, size := range sizes {
		res, err := mpi.RunContext(ctx, mpi.Config{
			NP:       2,
			Model:    cfg.Model,
			Topo:     topo,
			Protocol: prot,
		}, pingpong(cfg.Reps, size))
		if err != nil {
			return nil, fmt.Errorf("netpipe: size %d: %w", size, err)
		}
		oneWay := res.Makespan.Micros() / float64(2*cfg.Reps)
		bw := 0.0
		if oneWay > 0 {
			bw = float64(size) / oneWay // bytes per µs == MB/s
		}
		out = append(out, Point{Bytes: size, LatencyUs: oneWay, BandwidthMBps: bw})
	}
	return out, nil
}

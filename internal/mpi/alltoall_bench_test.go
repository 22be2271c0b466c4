package mpi_test

import (
	"syscall"
	"testing"
	"time"

	"hydee/internal/mpi"
	"hydee/internal/netmodel"
)

// BenchmarkAlltoall256 is FT's transpose without FT: np = 256 ranks run
// the runtime's pairwise-shift Alltoall (send to rank+k, receive from
// rank-k, for k = 1..255) under the native protocol, the densest traffic a
// kernel puts through the delivery plane. Besides ns per message and
// allocations it reports cpu-ns per message — the process's user and
// system CPU over the loop, which counts a second core's work that
// wall-clock ns hide — and the plane's parks and mutations per message,
// from Result.Plane.
func BenchmarkAlltoall256(b *testing.B) {
	const np, rounds = 256, 2
	prog := func(c *mpi.Comm) error {
		blocks := make([][]byte, np)
		for d := range blocks {
			blocks[d] = []byte{byte(c.Rank()), byte(d)}
		}
		for i := 0; i < rounds; i++ {
			if _, err := c.Alltoall(blocks, 4<<10); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := mpi.Config{NP: np, Model: netmodel.Myrinet10G()}
	var parks, mutations, runs int64
	b.ReportAllocs()
	cpu0 := cpuTime(b)
	for b.Loop() {
		res, err := mpi.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		parks += res.Plane.Parks
		mutations += res.Plane.Mutations
		runs++
	}
	cpu := cpuTime(b) - cpu0
	msgs := float64(runs * np * (np - 1) * rounds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(cpu.Nanoseconds())/msgs, "cpu-ns/msg")
	b.ReportMetric(float64(parks)/msgs, "parks/msg")
	b.ReportMetric(float64(mutations)/msgs, "mutations/msg")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

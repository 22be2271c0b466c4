package mpi_test

import (
	"testing"

	"hydee/internal/mpi"
	"hydee/internal/netmodel"
)

// BenchmarkAlltoall256 is FT's transpose without FT: np = 256 ranks run
// the runtime's pairwise-shift Alltoall (send to rank+k, receive from
// rank-k, for k = 1..255) under the native protocol, the densest traffic a
// kernel puts through the delivery plane. Besides ns per message and
// allocations it reports the plane's parks and mutations per message, from
// Result.Plane.
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
	for b.Loop() {
		res, err := mpi.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		parks += res.Plane.Parks
		mutations += res.Plane.Mutations
		runs++
	}
	msgs := float64(runs * np * (np - 1) * rounds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(parks)/msgs, "parks/msg")
	b.ReportMetric(float64(mutations)/msgs, "mutations/msg")
}

package graph

import (
	"fmt"
	"testing"
)

// BenchmarkCluster times the default sweep on the shapes that bound the
// partitioner's cost: a 2D torus (the stencil kernels: four neighbours a
// rank) at the paper's np = 256 and at 4096, and a complete graph (FT's
// all-to-all) at 256.
func BenchmarkCluster(b *testing.B) {
	complete := func(n int) *Graph {
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddTraffic(i, j, 1)
			}
		}
		return g
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"torus256", torus2D(16, 16, 4, 1)},
		{"complete256", complete(256)},
		{"torus4096", torus2D(64, 64, 4, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			opt := DefaultOptions()
			for i := 0; i < b.N; i++ {
				if res := Cluster(c.g, opt); res.K < 2 {
					b.Fatal(fmt.Sprintf("degenerate clustering: %+v", res.K))
				}
			}
		})
	}
}

// The extension example plugs third-party components into hydee from
// outside the root package, each by value: a custom rollback protocol
// (HydEE under instrumentation), a custom checkpoint store (a
// save-counting wrapper over the sharded store) and a custom event
// exporter (a per-kind tally). A built-in network model is resolved by
// name, as the cmd binaries' flags do. All four are driven through one
// failure-and-recovery run.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"

	"hydee"
)

// tracedHydEE is a "third-party" protocol: it delegates to HydEE and
// only renames itself, the minimal shape of a protocol wrapper (real
// ones would decorate NewEngine with accounting or policy).
type tracedHydEE struct{ hydee.Protocol }

func (tracedHydEE) Name() string { return "traced-hydee" }

// countingStore is a "third-party" checkpoint store: it wraps any
// backend and counts saves. It inherits the wrapped store's determinism
// (it adds no timing of its own), so it is safe to plug into runs whose
// makespans must stay byte-reproducible.
type countingStore struct {
	hydee.Store
	saves atomic.Int64
}

func (st *countingStore) Save(s *hydee.Snapshot, at hydee.Time) (hydee.Time, error) {
	st.saves.Add(1)
	return st.Store.Save(s, at)
}

// tallyExporter is a "third-party" event exporter: it counts events per
// kind and writes one summary line on Close.
type tallyExporter struct {
	mu     sync.Mutex
	w      io.Writer
	counts map[string]int
}

func newTallyExporter(w io.Writer) hydee.Exporter {
	return &tallyExporter{w: w, counts: make(map[string]int)}
}

func (x *tallyExporter) OnEvent(ev hydee.RunEvent) {
	x.mu.Lock()
	x.counts[ev.Kind.String()]++
	x.mu.Unlock()
}

func (x *tallyExporter) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, err := fmt.Fprintf(x.w, "event tally: %v\n", x.counts)
	return err
}

func main() {
	// The store wraps three 1 GB/s shards, each cluster's checkpoints on
	// its own shard: what the spec "sharded:3" with that bandwidth builds.
	topo := hydee.NewTopology([]int{0, 0, 1, 1, 2, 2})
	store := &countingStore{Store: hydee.NewShardedStore(3, 1e9, 1e9, hydee.ClusterPlacement(topo, 3))}
	exporter := newTallyExporter(os.Stdout)
	// A built-in model resolves by name, as a flag-driven binary would.
	model, err := hydee.ModelByName("myrinet") // shorthand alias of myrinet10g
	if err != nil {
		log.Fatal(err)
	}

	eng, err := hydee.New(
		hydee.WithTopology(topo),
		hydee.WithProtocol(tracedHydEE{hydee.HydEE()}),
		hydee.WithModel(model),
		hydee.WithStore(store),
		hydee.WithCheckpointEvery(2),
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{3}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
		}),
		hydee.WithObserver(exporter),
	)
	if err != nil {
		log.Fatal(err)
	}

	res, err := eng.Run(context.Background(), hydee.StencilProgram(8, 4096))
	if err != nil {
		log.Fatal(err)
	}
	if err := exporter.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol %q over 6 ranks: makespan %v, %d recovery round(s)\n",
		"traced-hydee", res.Makespan, len(res.Rounds))
	fmt.Printf("counting store saw %d checkpoint saves across 3 shards (store stats: %+v)\n",
		store.saves.Load(), res.StoreStats)
	fmt.Printf("built-in names: stores %v, exporters %v\n",
		hydee.StoreNames(), hydee.ExporterNames())
}

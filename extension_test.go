package hydee_test

// End-to-end acceptance for the extension surface: a third-party
// protocol, store and exporter — implemented outside the root package,
// each passed to the engine by value — are driven through a
// failure-and-recovery run.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"hydee"
)

// auditProtocol is a third-party protocol: HydEE under a different name
// (delegation is the minimal protocol wrapper shape).
type auditProtocol struct{ hydee.Protocol }

func (auditProtocol) Name() string { return "audit-hydee" }

// countingExporter is a third-party exporter tallying events per kind.
type countingExporter struct {
	mu     sync.Mutex
	counts map[hydee.RunEventKind]int
	closed bool
}

func newCountingExporter(io.Writer) *countingExporter {
	return &countingExporter{counts: make(map[hydee.RunEventKind]int)}
}

func (x *countingExporter) OnEvent(ev hydee.RunEvent) {
	x.mu.Lock()
	x.counts[ev.Kind]++
	x.mu.Unlock()
}

func (x *countingExporter) Close() error {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
	return nil
}

func TestThirdPartyExtensionsByValue(t *testing.T) {
	topo := hydee.NewTopology([]int{0, 0, 1, 1})
	store := &trackingStore{Store: hydee.NewShardedStore(2, 1e9, 1e9, hydee.ClusterPlacement(topo, 2))}
	exp := newCountingExporter(&bytes.Buffer{})

	eng, err := hydee.New(failingEngineOpts(
		hydee.WithProtocol(auditProtocol{hydee.HydEE()}),
		hydee.WithStore(store),
		hydee.WithObserver(exp),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), hydee.StencilProgram(8, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	if len(res.Rounds) != 1 {
		t.Errorf("rounds = %+v, want 1 (third-party protocol must still recover)", res.Rounds)
	}
	if store.saves.Load() == 0 || store.loads.Load() == 0 {
		t.Errorf("third-party store not exercised: %d saves, %d loads", store.saves.Load(), store.loads.Load())
	}
	if res.StoreStats.Saves != store.saves.Load() {
		t.Errorf("run's store stats %+v, third-party store saw %d saves", res.StoreStats, store.saves.Load())
	}
	exp.mu.Lock()
	defer exp.mu.Unlock()
	if !exp.closed || exp.counts[hydee.EvRunComplete] != 1 || exp.counts[hydee.EvRecoveryEnd] != 1 {
		t.Errorf("third-party exporter lifecycle: closed=%v counts=%v", exp.closed, exp.counts)
	}
}

// TestJSONLExporterSelectedByName closes the acceptance loop for the
// JSONL exporter specifically: resolved by name, driven by a
// run, and parseable line-by-line.
func TestJSONLExporterSelectedByName(t *testing.T) {
	mk, err := hydee.ExporterByName("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp := mk(&buf)
	runWithExporter(t, exp)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		lines++
	}
	if lines < 4 {
		t.Errorf("only %d event lines", lines)
	}
}

package hydee_test

// End-to-end acceptance for the extension surface: a third-party
// protocol, store and exporter — implemented outside the root package —
// are driven through a failure-and-recovery run. The protocol plugs in
// by value; the store and the exporter are registered once and then
// selected purely by name, the way an embedding application or a cmd
// binary's flags would.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
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

func TestThirdPartyExtensionsByName(t *testing.T) {
	var stores []*trackingStore
	var exporters []*countingExporter
	mustRegister := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	store, exporter := freshName("audit-sharded"), freshName("audit-count")
	mustRegister(hydee.RegisterStore(store, func(o hydee.StoreOptions) (hydee.Store, error) {
		st := &trackingStore{Store: hydee.NewShardedStore(o.Shards, o.BPS, o.BPS, o.Placement)}
		stores = append(stores, st)
		return st, nil
	}))
	mustRegister(hydee.RegisterExporter(exporter, func(w io.Writer) hydee.Exporter {
		x := newCountingExporter(w)
		exporters = append(exporters, x)
		return x
	}))

	// The store and the exporter resolve by name only.
	mkExp, err := hydee.ExporterByName(strings.ToUpper(exporter)) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	exp := mkExp(&bytes.Buffer{})

	eng, err := hydee.New(failingEngineOpts(
		hydee.WithProtocol(auditProtocol{hydee.HydEE()}),
		hydee.WithStoreSpec(hydee.StoreSpec{Spec: store + ":2", BPS: 1e9}),
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
	if len(stores) != 1 || stores[0].saves.Load() == 0 || stores[0].loads.Load() == 0 {
		t.Errorf("third-party store not exercised: %d stores", len(stores))
	}
	if len(exporters) != 1 {
		t.Fatalf("exporter factory called %d times, want 1", len(exporters))
	}
	c := exporters[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed || c.counts[hydee.EvRunComplete] != 1 || c.counts[hydee.EvRecoveryEnd] != 1 {
		t.Errorf("third-party exporter lifecycle: closed=%v counts=%v", c.closed, c.counts)
	}

	// The registered names show up in the listings the flag help prints.
	if !contains(hydee.StoreNames(), store) || !contains(hydee.ExporterNames(), exporter) {
		t.Errorf("registered names missing from listings: %v / %v",
			hydee.StoreNames(), hydee.ExporterNames())
	}
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if strings.EqualFold(n, want) {
			return true
		}
	}
	return false
}

// TestJSONLExporterSelectedByName closes the acceptance loop for the
// JSONL exporter specifically: resolved via the registry, driven by a
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

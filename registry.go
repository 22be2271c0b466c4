package hydee

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"hydee/internal/harness"
)

// Name tables: the cmd binaries, job submissions and any embedding
// application select network models, checkpoint stores and event
// exporters by name over fixed tables, so flags need no hard-coded
// switches. Lookups are case-insensitive. The tables are closed: a
// third-party model, store or exporter plugs in by value (WithModel,
// WithStore, WithObserver or ContextWithObserver, ExperimentSpec.NewStore),
// as a protocol does through WithProtocol. A protocol name (a flag's or a
// job's proto) resolves through ExperimentProtoByName over the fixed
// harness configurations.

// nameTable is a fixed, case-insensitive table of values of type V.
// Canonical names and shorthand aliases resolve identically; listings and
// error messages report canonical names first, so an alias never
// masquerades as a distinct backend.
type nameTable[V any] struct {
	kind    string            // "network model", ... for error messages
	entries map[string]V      // canonical names, lower-case
	aliasOf map[string]string // alias → canonical name
}

// lookup resolves a name or alias to its value.
func (t nameTable[V]) lookup(name string) (V, error) {
	key := strings.ToLower(name)
	if canonical, ok := t.aliasOf[key]; ok {
		key = canonical
	}
	v, ok := t.entries[key]
	if !ok {
		return v, fmt.Errorf("hydee: unknown %s %q (have %s)", t.kind, name, t.have())
	}
	return v, nil
}

// names returns the canonical names, sorted.
func (t nameTable[V]) names() []string { return slices.Sorted(maps.Keys(t.entries)) }

// have renders the name inventory for error messages: canonical names
// first, shorthand aliases after.
func (t nameTable[V]) have() string {
	s := strings.Join(t.names(), ", ")
	if len(t.aliasOf) > 0 {
		s += "; aliases: " + strings.Join(slices.Sorted(maps.Keys(t.aliasOf)), ", ")
	}
	return s
}

var (
	models = nameTable[func() Model]{kind: "network model",
		entries: map[string]func() Model{"myrinet10g": Myrinet10G, "tcpgige": TCPGigE, "ideal": IdealNetwork},
		aliasOf: map[string]string{"myrinet": "myrinet10g", "gige": "tcpgige"},
	}
	exporters = nameTable[ExporterFactory]{kind: "event exporter",
		entries: map[string]ExporterFactory{"jsonl": NewJSONLExporter, "metrics": NewMetricsExporter},
	}
)

// ModelByName returns a fresh instance of the named network cost model:
// "myrinet10g" (the paper's testbed), "tcpgige" or "ideal". "myrinet"
// and "gige" are accepted as shorthand aliases. A third-party model
// reaches a run through WithModel.
func ModelByName(name string) (Model, error) {
	mk, err := models.lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// ModelNames lists the model names, sorted. Shorthand aliases ("myrinet",
// "gige") are resolvable through ModelByName but not listed — an alias is
// not a distinct backend.
func ModelNames() []string { return models.names() }

// StoreNames lists the store names a StoreSpec selects over, sorted.
func StoreNames() []string { return stores.names() }

// ExporterByName resolves the named event-exporter factory: "jsonl" or
// "metrics". A third-party exporter reaches a run through WithObserver
// or ContextWithObserver.
func ExporterByName(name string) (ExporterFactory, error) {
	return exporters.lookup(name)
}

// ExporterNames lists the exporter names, sorted.
func ExporterNames() []string { return exporters.names() }

// ExperimentProtoByName resolves a name to the harness protocol selector
// used by ExperimentSpec: "native" (no fault tolerance), "coord" (globally
// coordinated checkpointing), "mlog" (full sender-based message logging)
// or "hydee".
func ExperimentProtoByName(name string) (ExperimentProto, error) {
	return harness.ProtoByName(strings.ToLower(name))
}

// ExperimentProtoNames lists the names ExperimentProtoByName accepts —
// what a sweep's proto and the cmd binaries' -proto flags resolve
// through. The harness configurations are fixed.
func ExperimentProtoNames() []string {
	names := make([]string, len(harness.Protos))
	for i, p := range harness.Protos {
		names[i] = p.String()
	}
	return names
}

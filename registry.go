package hydee

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hydee/internal/harness"
)

// Name-based registries: the cmd binaries (and any embedding application)
// select network models, checkpoint stores and event exporters via flags
// instead of hard-coded switches. Lookups are case-insensitive. Embedders
// plug third-party implementations in through the Register* hooks;
// registration is safe under concurrency and a name can be claimed
// exactly once. Protocols have no open registry: a protocol value reaches
// a run through WithProtocol, and a protocol name (a flag's or a job's
// proto) resolves through ExperimentProtoByName over the fixed harness
// configurations.

// registry is a concurrency-safe, case-insensitive name table of factory
// values of type F. Canonical names and shorthand aliases resolve
// identically; listings and error messages report canonical names first,
// so an alias never masquerades as a distinct backend.
type registry[F any] struct {
	kind string // "network model", ... for error messages

	mu      sync.RWMutex
	entries map[string]F
	// aliasOf maps a registered alias to its canonical name; canonical
	// names are absent.
	aliasOf map[string]string
}

func newRegistry[F any](kind string) *registry[F] {
	return &registry[F]{
		kind:    kind,
		entries: make(map[string]F),
		aliasOf: make(map[string]string),
	}
}

// register claims name for f. canonical="" registers a canonical name;
// otherwise name becomes an alias of canonical. Empty names and
// collisions (with canonical names and aliases alike) are errors.
func (r *registry[F]) register(name, canonical string, f F) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return fmt.Errorf("hydee: register %s: empty name", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[key]; taken {
		return fmt.Errorf("hydee: register %s %q: name already taken", r.kind, name)
	}
	r.entries[key] = f
	if canonical != "" {
		r.aliasOf[key] = strings.ToLower(canonical)
	}
	return nil
}

// mustRegister backs the built-in init-time registrations.
func (r *registry[F]) mustRegister(name, canonical string, f F) {
	if err := r.register(name, canonical, f); err != nil {
		panic(err)
	}
}

// lookup resolves a name or alias to its factory.
func (r *registry[F]) lookup(name string) (F, error) {
	r.mu.RLock()
	f, ok := r.entries[strings.ToLower(name)]
	r.mu.RUnlock()
	if !ok {
		var zero F
		return zero, fmt.Errorf("hydee: unknown %s %q (have %s)", r.kind, name, r.have())
	}
	return f, nil
}

// names returns the canonical names, sorted. The listing is a snapshot:
// it reflects one consistent registry state even under concurrent
// registration.
func (r *registry[F]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		if _, isAlias := r.aliasOf[n]; !isAlias {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// have renders the name inventory for error messages: canonical names
// first, shorthand aliases after.
func (r *registry[F]) have() string {
	canonical := r.names()
	r.mu.RLock()
	aliases := make([]string, 0, len(r.aliasOf))
	for a := range r.aliasOf {
		aliases = append(aliases, a)
	}
	r.mu.RUnlock()
	sort.Strings(aliases)
	s := strings.Join(canonical, ", ")
	if len(aliases) > 0 {
		s += "; aliases: " + strings.Join(aliases, ", ")
	}
	return s
}

var (
	modelRegistry    = newRegistry[func() Model]("network model")
	storeRegistry    = newRegistry[storeBackend]("checkpoint store")
	exporterRegistry = newRegistry[ExporterFactory]("event exporter")
)

func init() {
	modelRegistry.mustRegister("myrinet10g", "", Myrinet10G)
	modelRegistry.mustRegister("myrinet", "myrinet10g", Myrinet10G)
	modelRegistry.mustRegister("tcpgige", "", TCPGigE)
	modelRegistry.mustRegister("gige", "tcpgige", TCPGigE)
	modelRegistry.mustRegister("ideal", "", IdealNetwork)

	storeRegistry.mustRegister("mem", "", memBackend)
	storeRegistry.mustRegister("memory", "mem", memBackend)
	storeRegistry.mustRegister("file", "", fileBackend)
	storeRegistry.mustRegister("sharded", "", shardedBackend)
	storeRegistry.mustRegister("ec", "", ecBackend)
	storeRegistry.mustRegister("replica", "", replicaBackend)
	storeRegistry.mustRegister("replicated", "replica", replicaBackend)

	exporterRegistry.mustRegister("jsonl", "", NewJSONLExporter)
	exporterRegistry.mustRegister("metrics", "", NewMetricsExporter)
}

// RegisterModel adds a third-party network cost model to the name
// registry, making it resolvable through ModelByName. mk must return a
// fresh instance per call. Registration is concurrency-safe; empty names
// and already-taken names (canonical or alias, case-insensitive) are
// errors.
func RegisterModel(name string, mk func() Model) error {
	if mk == nil {
		return fmt.Errorf("hydee: RegisterModel(%q): nil constructor", name)
	}
	return modelRegistry.register(name, "", mk)
}

// RegisterStore adds a third-party checkpoint-store backend to the name
// registry, making it selectable by StoreSpec — WithStoreSpec, the cmd
// binaries' -store flags and job submissions (see RegisterModel for
// the registration rules). mk receives the options the spec resolves
// to. Custom stores carry determinism obligations — see the "Extension
// points" section of DESIGN.md.
func RegisterStore(name string, mk StoreFactory) error {
	if mk == nil {
		return fmt.Errorf("hydee: RegisterStore(%q): nil factory", name)
	}
	return storeRegistry.register(name, "", storeBackend{build: mk})
}

// RegisterExporter adds a third-party streaming event exporter to the
// name registry, making it selectable through the cmd binaries' -events
// flags (see RegisterModel for the registration rules).
func RegisterExporter(name string, mk ExporterFactory) error {
	if mk == nil {
		return fmt.Errorf("hydee: RegisterExporter(%q): nil factory", name)
	}
	return exporterRegistry.register(name, "", mk)
}

// ModelByName returns a fresh instance of the named network cost model:
// "myrinet10g" (the paper's testbed), "tcpgige", "ideal", or anything
// added through RegisterModel. "myrinet" and "gige" are accepted as
// shorthand aliases.
func ModelByName(name string) (Model, error) {
	mk, err := modelRegistry.lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// ModelNames lists the registered model names, sorted. Shorthand aliases
// ("myrinet", "gige") are resolvable through ModelByName but not listed —
// an alias is not a distinct backend.
func ModelNames() []string { return modelRegistry.names() }

// StoreNames lists the registered store names, sorted.
func StoreNames() []string { return storeRegistry.names() }

// ExporterByName resolves the named event-exporter factory: "jsonl",
// "metrics", or anything added through RegisterExporter.
func ExporterByName(name string) (ExporterFactory, error) {
	return exporterRegistry.lookup(name)
}

// ExporterNames lists the registered exporter names, sorted.
func ExporterNames() []string { return exporterRegistry.names() }

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

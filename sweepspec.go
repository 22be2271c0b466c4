package hydee

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"hydee/internal/failure"
)

// Shared run-selection specs. The cmd binaries' -store/-store-bps/
// -store-dir and -events/-exporter flags and the hydee-serve HTTP API
// decode the exact same compact forms through the types below, so a spec
// that works on a command line works verbatim in a job submission (and
// vice versa), and every name resolves over the same fixed tables.

// StoreSpec is the flag/wire form of a checkpoint-store selection:
// a store name with an optional geometry ("mem", "sharded:4",
// "ec:4+2", "replica:3" — see StoreSpecForms), a per-link bandwidth
// model and a directory for file-backed stores. The zero value selects
// the free in-memory store.
type StoreSpec struct {
	// Spec selects the store over StoreNames in the ParseStoreSpec
	// grammar (StoreSpecForms); "" means "mem".
	Spec string `json:"store,omitempty"`
	// BPS models stable-storage write and read bandwidth in bytes/second
	// per store link (0 = free storage).
	BPS float64 `json:"store_bps,omitempty"`
	// Dir is the snapshot directory of file-backed stores.
	Dir string `json:"store_dir,omitempty"`
}

// Bind registers the shared -store, -store-bps and -store-dir flags on fs,
// filling s at parse time. Defaults come from s's current values.
func (s *StoreSpec) Bind(fs *flag.FlagSet) {
	if s.Spec == "" {
		s.Spec = "mem"
	}
	fs.StringVar(&s.Spec, "store", s.Spec,
		"checkpoint store over "+strings.Join(StoreNames(), ", ")+"; forms "+StoreSpecForms)
	fs.Float64Var(&s.BPS, "store-bps", s.BPS,
		"stable-storage bandwidth in bytes/second per store link (0 = free)")
	fs.StringVar(&s.Dir, "store-dir", s.Dir,
		"snapshot directory for -store file (runs reuse it; same-sequence files are overwritten)")
}

// resolve is the one path from a spec to a store's backend and options:
// parse the geometry, look the backend up, layer the bandwidth and
// directory on, and check them against the backend. Every error is a
// *StoreSpecError.
func (s StoreSpec) resolve() (storeBackend, StoreOptions, error) {
	spec := s.Spec
	if strings.TrimSpace(spec) == "" {
		spec = "mem"
	}
	name, opts, err := ParseStoreSpec(spec)
	if err != nil {
		return storeBackend{}, StoreOptions{}, err
	}
	b, err := stores.lookup(name)
	if err != nil {
		return storeBackend{}, StoreOptions{}, &StoreSpecError{Spec: spec, Reason: fmt.Sprintf("unknown store %q", name)}
	}
	opts.BPS, opts.Dir = s.BPS, s.Dir
	if err := b.validate(opts); err != nil {
		return storeBackend{}, StoreOptions{}, &StoreSpecError{Spec: spec, Reason: err.Error()}
	}
	return b, opts, nil
}

// Probe validates the spec eagerly — the geometry parses, the name
// resolves and the backend accepts the options — so a typo fails at
// startup or submission time, not inside the first run of a sweep. It
// returns the options the spec resolves to and builds nothing: checking
// a spec never touches the filesystem. Its errors are *StoreSpecError.
func (s StoreSpec) Probe() (StoreOptions, error) {
	_, opts, err := s.resolve()
	return opts, err
}

// New builds a fresh store for one run. A composite spec (sharded, ec,
// replica) places each cluster of topo on its own shard — for ec, the
// base shard of the cluster's fragment group; for replica, the cluster's
// home replica. topo may be nil for unclustered runs. A spec Probe
// refuses fails here with the same *StoreSpecError; what fails after it,
// a file store's directory say, is the store's own error.
func (s StoreSpec) New(topo *Topology) (Store, error) {
	b, opts, err := s.resolve()
	if err != nil {
		return nil, err
	}
	// The parser sets one geometry field (k and m for ec), so their sum
	// is the target count ClusterPlacement reduces modulo.
	var place func(rank int) int
	if n := opts.Shards + opts.Parity + opts.Replicas; n > 1 && topo != nil {
		place = ClusterPlacement(topo, n)
	}
	return b.build(opts, place)
}

// EventStreamSpec is the flag/wire form of the -events/-exporter pair:
// a destination path (a directory gets one file per run) and the name of
// the exporter driving it. The zero value streams nothing.
type EventStreamSpec struct {
	// Path receives the event stream: one fan-in file, or one file per
	// run when it names a directory (trailing slash or existing dir).
	// "" disables streaming.
	Path string `json:"events,omitempty"`
	// Exporter is the event-exporter name; "" means "jsonl".
	Exporter string `json:"exporter,omitempty"`
}

// Bind registers the shared -events and -exporter flags on fs, filling s
// at parse time. Defaults come from s's current values.
func (s *EventStreamSpec) Bind(fs *flag.FlagSet) {
	if s.Exporter == "" {
		s.Exporter = "jsonl"
	}
	fs.StringVar(&s.Path, "events", s.Path,
		"stream run lifecycle events to this file, or one file per run when the path is a directory (trailing slash or existing dir)")
	fs.StringVar(&s.Exporter, "exporter", s.Exporter,
		"event exporter for -events: "+strings.Join(ExporterNames(), ", "))
}

// Wire connects the stream to ctx: every run started under the returned
// context streams its lifecycle events to the configured destination. A
// Path ending in a separator, or naming an existing directory, gets one
// run-<id>.jsonl file per run, so a parallel sweep's output is
// dissectable per run; anything else is one fan-in file. The returned
// function closes every file and flushes the stream — call it once the
// sweep is done; it is never nil when err is. A spec with no Path wires
// nothing and succeeds.
func (s EventStreamSpec) Wire(ctx context.Context) (context.Context, func() error, error) {
	if s.Path == "" {
		return ctx, func() error { return nil }, nil
	}
	name := s.Exporter
	if name == "" {
		name = "jsonl"
	}
	mk, err := ExporterByName(name)
	if err != nil {
		return ctx, nil, err
	}
	st, statErr := os.Stat(s.Path)
	if strings.HasSuffix(s.Path, string(os.PathSeparator)) || strings.HasSuffix(s.Path, "/") || statErr == nil && st.IsDir() {
		exp, err := NewRunDirExporter(s.Path, mk)
		if err != nil {
			return ctx, nil, err
		}
		return ContextWithObserver(ctx, exp), exp.Close, nil
	}
	f, err := os.Create(s.Path)
	if err != nil {
		return ctx, nil, fmt.Errorf("hydee: event stream: %w", err)
	}
	exp := mk(f)
	closeFn := func() error {
		expErr := exp.Close()
		if err := f.Close(); err != nil && expErr == nil {
			expErr = fmt.Errorf("hydee: event stream: %w", err)
		}
		return expErr
	}
	return ContextWithObserver(ctx, exp), closeFn, nil
}

// SweepSpec is the wire form of one experiment run — what one element of
// a hydee-serve job submission decodes to, with every backend selected by
// name. The same resolution backs the cmd binaries' flags, so a
// JSON spec and a flag spelling of the same run are literally the same
// configuration.
type SweepSpec struct {
	// App is the kernel name ("bt", "cg", "ft", "lu", "mg", "sp").
	App string `json:"app"`
	// NP is the rank count.
	NP int `json:"np"`
	// Iters is the timestep count; 0 means 3.
	Iters int `json:"iters,omitempty"`
	// Proto is the protocol-configuration name ("native", "coord",
	// "mlog", "hydee"); "" means "hydee".
	Proto string `json:"proto,omitempty"`
	// Net is the network-model name; "" means "myrinet10g".
	Net string `json:"net,omitempty"`
	// Assign is the per-rank cluster assignment (proto "hydee" only).
	Assign []int `json:"assign,omitempty"`
	// Clusters, when Assign is absent, splits the ranks into this many
	// contiguous equal blocks (proto "hydee" only).
	Clusters int `json:"clusters,omitempty"`
	// CheckpointEvery fires a coordinated checkpoint every k-th
	// cooperative checkpoint call; 0 disables checkpointing.
	CheckpointEvery int `json:"ckpt,omitempty"`
	// Stagger offsets the checkpoint schedule per cluster (E5).
	Stagger bool `json:"stagger,omitempty"`
	// FailAt is a failure-injection spec in the ParseFailureSpec grammar
	// ("vt:1.5ms@3; ckpts:2@8,12"); "" injects nothing.
	FailAt string `json:"fail_at,omitempty"`
	// StoreSpec selects the checkpoint store; being embedded, its fields
	// inline into the same JSON object ("store", "store_bps",
	// "store_dir").
	StoreSpec
}

// maxSweepNP is the largest rank count a sweep spec accepts: the
// largest any test or binary runs. A run's summary holds an np×np
// pair-traffic matrix of int64s, 32 GiB at np = 65536, so a posted np
// above it is refused before any run starts.
const maxSweepNP = 16384

// Experiment resolves the spec through the name tables into a runnable
// ExperimentSpec, validating every name and the failure grammar eagerly.
func (s SweepSpec) Experiment() (ExperimentSpec, error) {
	var spec ExperimentSpec
	if s.NP <= 0 || s.NP > maxSweepNP {
		return spec, fmt.Errorf("hydee: sweep spec: np must be in 1..%d (got %d)", maxSweepNP, s.NP)
	}
	iters := s.Iters
	switch {
	case iters == 0:
		iters = 3
	case iters < 0:
		return spec, fmt.Errorf("hydee: sweep spec: iters must be positive (got %d)", iters)
	}
	if s.CheckpointEvery < 0 {
		return spec, fmt.Errorf("hydee: sweep spec: ckpt must be >= 0 (got %d)", s.CheckpointEvery)
	}
	kernel, err := KernelByName(s.App)
	if err != nil {
		return spec, err
	}
	protoName := s.Proto
	if protoName == "" {
		protoName = "hydee"
	}
	proto, err := ExperimentProtoByName(protoName)
	if err != nil {
		return spec, err
	}
	spec = ExperimentSpec{
		Kernel:          kernel,
		Params:          KernelParams{NP: s.NP, Iters: iters},
		Proto:           proto,
		CheckpointEvery: s.CheckpointEvery,
		Stagger:         s.Stagger,
	}
	if proto == ProtoHydEE {
		switch {
		case len(s.Assign) > 0:
			if err := checkAssign(s.Assign, s.NP); err != nil {
				return spec, fmt.Errorf("hydee: sweep spec: %w", err)
			}
			spec.Assign = append([]int(nil), s.Assign...)
		case s.Clusters > 0:
			if s.Clusters > s.NP {
				return spec, fmt.Errorf("hydee: sweep spec: %d clusters over %d ranks", s.Clusters, s.NP)
			}
			assign := make([]int, s.NP)
			for r := range assign {
				assign[r] = r * s.Clusters / s.NP
			}
			spec.Assign = assign
		default:
			return spec, fmt.Errorf(`hydee: sweep spec: proto "hydee" needs "assign" or "clusters"`)
		}
	}
	if s.Net != "" {
		if spec.Model, err = ModelByName(s.Net); err != nil {
			return spec, err
		}
	}
	if spec.Failures, err = ParseFailureSpec(s.FailAt); err != nil {
		return spec, err
	}
	if err := failure.Validate(spec.Failures, s.NP); err != nil {
		return spec, err
	}
	if s.StoreSpec == (StoreSpec{}) {
		return spec, nil
	}
	if _, err := s.StoreSpec.Probe(); err != nil {
		return spec, err
	}
	spec.NewStore = s.StoreSpec.New
	return spec, nil
}

// Experiments resolves a batch of sweep specs, failing on the first
// invalid one with its index in the error.
func Experiments(specs []SweepSpec) ([]ExperimentSpec, error) {
	out := make([]ExperimentSpec, len(specs))
	for i, s := range specs {
		spec, err := s.Experiment()
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		out[i] = spec
	}
	return out, nil
}

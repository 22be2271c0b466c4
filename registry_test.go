package hydee_test

// Tests for the open registries: Register* hooks, collision and
// empty-name errors, case-insensitivity, alias deduplication in
// listings, and snapshot-consistent behaviour under concurrent
// registration (run with -race).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hydee"
)

// registered numbers the names tests register. Registries have no
// unregister, so a test registers fresh names on every run (go test
// -count=N runs it N times in one process).
var registered atomic.Int64

// freshName returns base with a suffix no earlier call returned.
func freshName(base string) string { return fmt.Sprintf("%s-%d", base, registered.Add(1)) }

func TestRegisterCollisionAndEmptyName(t *testing.T) {
	if err := hydee.RegisterModel("", hydee.IdealNetwork); err == nil {
		t.Error("empty model name accepted")
	}
	if err := hydee.RegisterModel("   ", hydee.IdealNetwork); err == nil {
		t.Error("blank model name accepted")
	}
	collider := freshName("collider")
	if err := hydee.RegisterModel(collider, hydee.IdealNetwork); err != nil {
		t.Fatal(err)
	}
	// Same name again — and case-insensitively — must collide.
	if err := hydee.RegisterModel(collider, hydee.TCPGigE); err == nil {
		t.Error("duplicate model name accepted")
	}
	if err := hydee.RegisterModel(strings.ToUpper(collider), hydee.TCPGigE); err == nil {
		t.Error("case-variant duplicate accepted")
	}
	// Builtins and aliases are also protected.
	if err := hydee.RegisterModel("ideal", hydee.IdealNetwork); err == nil {
		t.Error("builtin model name re-registered")
	}
	if err := hydee.RegisterModel("myrinet", hydee.Myrinet10G); err == nil {
		t.Error("builtin model alias re-registered")
	}
	if err := hydee.RegisterModel("nilmk", nil); err == nil {
		t.Error("nil constructor accepted")
	}
	if err := hydee.RegisterStore("nilmk", nil); err == nil {
		t.Error("nil store factory accepted")
	}
	if err := hydee.RegisterExporter("nilmk", nil); err == nil {
		t.Error("nil exporter factory accepted")
	}
}

func TestModelNamesDedupeAliases(t *testing.T) {
	names := hydee.ModelNames()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	// Shorthands resolve but are not listed as if they were distinct
	// backends.
	for _, alias := range []string{"myrinet", "gige"} {
		if seen[alias] {
			t.Errorf("ModelNames lists alias %q as a backend: %v", alias, names)
		}
		if _, err := hydee.ModelByName(alias); err != nil {
			t.Errorf("alias %q stopped resolving: %v", alias, err)
		}
	}
	for _, canonical := range []string{"myrinet10g", "tcpgige", "ideal"} {
		if !seen[canonical] {
			t.Errorf("ModelNames misses canonical %q: %v", canonical, names)
		}
	}
	storeNames := hydee.StoreNames()
	for _, n := range storeNames {
		if n == "memory" {
			t.Errorf("StoreNames lists alias %q: %v", n, storeNames)
		}
	}
}

func TestUnknownNameErrorsListCanonicalFirst(t *testing.T) {
	_, err := hydee.ModelByName("infiniband")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	msg := err.Error()
	canon := strings.Index(msg, "myrinet10g")
	alias := strings.Index(msg, "aliases:")
	if canon < 0 {
		t.Fatalf("error does not list canonical names: %q", msg)
	}
	if alias >= 0 && alias < canon {
		t.Errorf("aliases listed before canonical names: %q", msg)
	}
	if !strings.Contains(msg, "myrinet") || !strings.Contains(msg, "gige") {
		t.Errorf("shorthands dropped from inventory entirely: %q", msg)
	}
	if _, err := (hydee.StoreSpec{Spec: "s3"}).New(nil); err == nil {
		t.Error("unknown store accepted")
	}
	if _, err := hydee.ExporterByName("otlp"); err == nil {
		t.Error("unknown exporter accepted")
	}
}

func TestConcurrentRegistration(t *testing.T) {
	// Many goroutines race to register the same names; exactly one per
	// name may win, listings must stay snapshot-consistent, and every
	// winner must be resolvable afterwards. Run with -race.
	const names, racers = 16, 8
	prefix := freshName("race-model")
	var wg sync.WaitGroup
	wins := make([][]bool, names)
	for n := 0; n < names; n++ {
		wins[n] = make([]bool, racers)
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(n, g int) {
				defer wg.Done()
				name := fmt.Sprintf("%s-%d", prefix, n)
				if err := hydee.RegisterModel(name, hydee.IdealNetwork); err == nil {
					wins[n][g] = true
				}
				// Interleave listings and lookups with registration.
				_ = hydee.ModelNames()
				_, _ = hydee.ModelByName("myrinet10g")
			}(n, g)
		}
	}
	wg.Wait()
	listed := make(map[string]bool)
	for _, n := range hydee.ModelNames() {
		listed[n] = true
	}
	for n := 0; n < names; n++ {
		won := 0
		for _, w := range wins[n] {
			if w {
				won++
			}
		}
		name := fmt.Sprintf("%s-%d", prefix, n)
		if won != 1 {
			t.Errorf("name %s: %d registrations succeeded, want exactly 1", name, won)
		}
		if !listed[name] {
			t.Errorf("winner %q missing from ModelNames", name)
		}
		if m, err := hydee.ModelByName(name); err != nil || m == nil {
			t.Errorf("winner %q not resolvable: %v", name, err)
		}
	}
}

func TestParseStoreSpec(t *testing.T) {
	cases := []struct {
		spec string
		name string
		opts hydee.StoreOptions
		ok   bool
	}{
		{"mem", "mem", hydee.StoreOptions{}, true},
		{"sharded:4", "sharded", hydee.StoreOptions{Shards: 4}, true},
		{"sharded:1", "sharded", hydee.StoreOptions{Shards: 1}, true},
		{"ec:4+2", "ec", hydee.StoreOptions{Shards: 4, Parity: 2}, true},
		{"ec:1+1", "ec", hydee.StoreOptions{Shards: 1, Parity: 1}, true},
		{"EC: 12 + 4", "EC", hydee.StoreOptions{Shards: 12, Parity: 4}, true},
		{"replica:3", "replica", hydee.StoreOptions{Replicas: 3}, true},
		{"replica:2", "replica", hydee.StoreOptions{Replicas: 2}, true},
		{"replicated:3", "replicated", hydee.StoreOptions{Replicas: 3}, true},
		{"sharded:0", "", hydee.StoreOptions{}, false},
		{"sharded:-2", "", hydee.StoreOptions{}, false},
		{"sharded:x", "", hydee.StoreOptions{}, false},
		{"", "", hydee.StoreOptions{}, false},
		{":4", "", hydee.StoreOptions{}, false},
		// Redundancy geometry is validated eagerly at parse time.
		{"ec", "", hydee.StoreOptions{}, false},
		{"ec:4", "", hydee.StoreOptions{}, false},
		{"ec:0+2", "", hydee.StoreOptions{}, false},
		{"ec:4+0", "", hydee.StoreOptions{}, false},
		{"ec:-1+2", "", hydee.StoreOptions{}, false},
		{"ec:200+100", "", hydee.StoreOptions{}, false},
		{"ec:a+b", "", hydee.StoreOptions{}, false},
		{"replica", "", hydee.StoreOptions{}, false},
		{"replica:1", "", hydee.StoreOptions{}, false},
		{"replica:0", "", hydee.StoreOptions{}, false},
		{"replica:x", "", hydee.StoreOptions{}, false},
		{"sharded:256", "sharded", hydee.StoreOptions{Shards: 256}, true},
		{"sharded:257", "", hydee.StoreOptions{}, false},
		{"replica:256", "replica", hydee.StoreOptions{Replicas: 256}, true},
		{"replica:257", "", hydee.StoreOptions{}, false},
	}
	for _, tc := range cases {
		name, opts, err := hydee.ParseStoreSpec(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("ParseStoreSpec(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if !tc.ok {
			// Rejections carry the typed error, and its message lists
			// the canonical store names so the fix is discoverable.
			var serr *hydee.StoreSpecError
			if !errors.As(err, &serr) {
				t.Errorf("ParseStoreSpec(%q): error %T is not a *StoreSpecError", tc.spec, err)
				continue
			}
			if serr.Spec != tc.spec {
				t.Errorf("ParseStoreSpec(%q): StoreSpecError.Spec = %q", tc.spec, serr.Spec)
			}
			for _, want := range []string{"ec", "replica", "sharded", "mem"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("ParseStoreSpec(%q) error does not list store %q: %v", tc.spec, want, err)
				}
			}
			continue
		}
		if name != tc.name || opts.Shards != tc.opts.Shards || opts.Parity != tc.opts.Parity || opts.Replicas != tc.opts.Replicas {
			t.Errorf("ParseStoreSpec(%q) = %q/%+v, want %q/%+v", tc.spec, name, opts, tc.name, tc.opts)
		}
	}
}

// FuzzParseStoreSpec holds the -store grammar to three properties on
// any input: parsing and resolving never panic; a spec that parses
// resolves, through StoreSpec, to a store or to a *StoreSpecError, with
// Probe refusing exactly what New refuses; and an engine configured with
// WithStoreSpec refuses exactly what Probe refuses. The seeds cover every
// registered store's forms, in and out of range.
func FuzzParseStoreSpec(f *testing.F) {
	for _, name := range hydee.StoreNames() {
		f.Add(name)
		f.Add(name + ":2")
	}
	for _, seed := range []string{
		"", ":4", "bogus", "sharded:4", "sharded:0", "sharded:-2", "sharded:256", "sharded:257",
		"sharded:99999999999999999999", "ec:4+2", "EC: 12 + 4", "ec:4", "ec:+", "ec:200+100",
		"ec:1+255", "replica:3", "replicated:2", "replica:1", "replica:257", "replica:x",
		"mem:1", "file", "file:3", "mem:: 2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if _, _, err := hydee.ParseStoreSpec(spec); err != nil {
			var se *hydee.StoreSpecError
			if !errors.As(err, &se) {
				t.Fatalf("spec %q: untyped parse error %v", spec, err)
			}
			return
		}
		s := hydee.StoreSpec{Spec: spec}
		st, err := s.New(nil)
		_, perr := s.Probe()
		if (err == nil) != (perr == nil) {
			t.Fatalf("spec %q: New error %v, Probe error %v", spec, err, perr)
		}
		if _, eerr := hydee.New(hydee.WithRanks(4), hydee.WithStoreSpec(s)); (eerr == nil) != (perr == nil) {
			t.Fatalf("spec %q: engine error %v, Probe error %v", spec, eerr, perr)
		}
		if err == nil {
			if st == nil {
				t.Fatalf("spec %q: no store and no error", spec)
			}
			return
		}
		var se *hydee.StoreSpecError
		if !errors.As(err, &se) {
			t.Fatalf("spec %q: untyped resolution error %v", spec, err)
		}
	})
}

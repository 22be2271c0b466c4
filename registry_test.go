package hydee_test

// Tests for the fixed name tables: exact listings, case-insensitive
// lookups of canonical names and aliases, and the unknown-name errors,
// plus the -store spec grammar.

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"hydee"
)

// TestModelNamesDedupeAliases pins every listing: canonical names only,
// sorted (the protocols in the table's order), never an alias.
func TestModelNamesDedupeAliases(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"ModelNames", hydee.ModelNames(), []string{"ideal", "myrinet10g", "tcpgige"}},
		{"StoreNames", hydee.StoreNames(), []string{"ec", "file", "mem", "replica", "sharded"}},
		{"ExporterNames", hydee.ExporterNames(), []string{"jsonl", "metrics"}},
		{"ExperimentProtoNames", hydee.ExperimentProtoNames(), []string{"native", "coord", "mlog", "hydee"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestUnknownNameErrorsListCanonicalFirst pins the three unknown-name
// errors byte for byte: canonical names first, aliases after.
func TestUnknownNameErrorsListCanonicalFirst(t *testing.T) {
	_, merr := hydee.ModelByName("infiniband")
	_, xerr := hydee.ExporterByName("otlp")
	_, serr := (hydee.StoreSpec{Spec: "s3"}).New(nil)
	for _, c := range []struct {
		err  error
		want string
	}{
		{merr, `hydee: unknown network model "infiniband" (have ideal, myrinet10g, tcpgige; aliases: gige, myrinet)`},
		{xerr, `hydee: unknown event exporter "otlp" (have jsonl, metrics)`},
		{serr, `hydee: store spec "s3": unknown store "s3" (forms: "<name>", "<name>:<shards>" (sharded:6), ` +
			`"ec:<k>+<m>" (ec:4+2), "replica:<r>" (replica:3); stores: ec, file, mem, replica, sharded; aliases: memory, replicated)`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error %v\nwant  %s", c.err, c.want)
		}
	}
	var se *hydee.StoreSpecError
	if !errors.As(serr, &se) {
		t.Errorf("unknown store: %T, want a *StoreSpecError", serr)
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
// store's forms, in and out of range, and its aliases.
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
		// Aliases, case-insensitive names and an unknown name with a
		// geometry.
		"memory", "Memory:2", "REPLICATED:3", "SHARDED:4", "Ec:2+1", "s3:4",
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

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// compareFiles implements -compare. With two -out files it prints, per
// workload and end-to-end metric, both medians, the change of the second
// against the first, and the metric's bound; it reports false when a
// change is worse than its bound (and than the metric's absolute floor,
// where it has one), when a median cannot be computed, or when a workload
// is in one file only. A pair whose run-to-run spread exceeds the bound is
// "unresolved", not "unchanged", unless every sample of one side is better
// than every sample of the other. Exact outputs — the virtual-time digest
// and the counts — must be identical. With one file it prints that file's
// medians and spreads.
//
// A side's samples are its per-run values when the file holds at least
// four runs of the workload (the driver's unit), otherwise the per-rep
// values of the runs it has.
func compareFiles(w io.Writer, paths []string) (bool, error) {
	if len(paths) != 1 && len(paths) != 2 {
		return false, fmt.Errorf("-compare wants one or two -out files, got %d", len(paths))
	}
	var sides []map[string][]*record
	for _, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			return false, err
		}
		sides = append(sides, recs)
	}
	ok := true
	for _, wl := range workloads {
		a := sides[0][wl.name]
		if len(a) == 0 {
			if len(sides) == 2 && len(sides[1][wl.name]) > 0 {
				ok = false
				fmt.Fprintf(w, "%s\n  MISSING from %s\n", wl.name, paths[0])
			}
			continue
		}
		if len(sides) == 1 {
			fmt.Fprintf(w, "%s\n  %-22s %14s %9s %7s %4s\n", wl.name, "metric", "median", "spread", "bound", "n")
			for _, m := range endToEnd {
				s := samplesOf(a, m.Name)
				fmt.Fprintf(w, "  %-22s %14.6g %8.2f%% %6.0f%% %4d\n", m.Name, median(s), 100*spread(s), 100*m.Bound, len(s))
			}
			continue
		}
		b := sides[1][wl.name]
		if len(b) == 0 {
			ok = false
			fmt.Fprintf(w, "%s\n  MISSING from %s\n", wl.name, paths[1])
			continue
		}
		fmt.Fprintf(w, "%s\n  %-22s %14s %14s %9s %7s %9s  %s\n", wl.name, "metric", "a", "b", "change", "bound", "spread", "verdict")
		for _, m := range endToEnd {
			sa, sb := samplesOf(a, m.Name), samplesOf(b, m.Name)
			if len(sa) == 0 && len(sb) == 0 {
				continue // two traced passes: only the exact outputs compare
			}
			ma, mb := median(sa), median(sb)
			worse := mb - ma // by how much b is worse than a, in the metric's unit
			if m.Better == "higher" {
				worse = ma - mb
			}
			// What a change, or a spread, has to exceed to count.
			tolerance := math.Max(m.Bound*math.Abs(ma), m.Floor)
			sp := math.Max(iqr(sa), iqr(sb)) // NaN when a side has one sample
			verdict := "ok"
			switch {
			case math.IsNaN(worse):
				verdict = "NO DATA"
			case math.IsNaN(sp) || sp > tolerance:
				verdict = "unresolved"
				if separated(sa, sb) {
					verdict = "ok (separated)"
					if worse > tolerance {
						verdict = "REGRESSION"
					}
				}
			case worse > tolerance:
				verdict = "REGRESSION"
			}
			if verdict == "REGRESSION" || verdict == "NO DATA" {
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g %+8.2f%% %6.0f%% %8.2f%%  %s\n", m.Name, ma, mb, -100*worse/ma, 100*m.Bound, 100*math.Max(spread(sa), spread(sb)), verdict)
		}
		// Exact outputs. Only runs of the same seed can be compared.
		for _, ra := range a {
			for _, rb := range b {
				if ra.Seed != rb.Seed || ra.Trace != rb.Trace {
					continue
				}
				if ra.VTDigest != rb.VTDigest {
					ok = false
					fmt.Fprintf(w, "  MISMATCH seed %d: vt_digest %s vs %s\n", ra.Seed, ra.VTDigest, rb.VTDigest)
				}
				for _, name := range slices.Sorted(maps.Keys(ra.Counts)) {
					if ra.Counts[name] != rb.Counts[name] {
						ok = false
						fmt.Fprintf(w, "  MISMATCH seed %d: %s %d vs %d\n", ra.Seed, name, ra.Counts[name], rb.Counts[name])
					}
				}
			}
		}
	}
	return ok, nil
}

// separated reports whether every sample of one side lies strictly on one
// side of every sample of the other.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}

// samplesOf collects the samples of one end-to-end metric from the
// untraced records of a workload.
func samplesOf(recs []*record, metric string) []float64 {
	var runs, reps []float64
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			runs = append(runs, v.Value)
		}
		reps = append(reps, r.Samples[metric]...)
	}
	if len(runs) >= 4 {
		return runs
	}
	return reps
}

func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, sc.Err()
}

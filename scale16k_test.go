//go:build smoke16k

package hydee_test

import (
	"syscall"
	"testing"
	"time"
)

// smoke16kMaxRSSMB is the np=16384 run's peak-RSS ceiling. Per-rank
// state sized by np, not by a rank's peers, is what breaks it first: with
// an np-long incarnation vector per engine this run peaked near 1.2 GB.
const smoke16kMaxRSSMB = 800

// TestHydEESmoke16384 runs the np=1024 smoke workload's shape at np=16384,
// logs what it cost and fails above the peak-RSS ceiling: `make smoke16k`.
func TestHydEESmoke16384(t *testing.T) {
	t0 := time.Now()
	smokeRun(t, 16384)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	rss := float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	t.Logf("np=16384: wall %.2fs, peak RSS %.0f MB", time.Since(t0).Seconds(), rss)
	if rss > smoke16kMaxRSSMB {
		t.Errorf("peak RSS %.0f MB above the %d MB ceiling", rss, smoke16kMaxRSSMB)
	}
}

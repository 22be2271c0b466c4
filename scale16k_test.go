//go:build smoke16k

package hydee_test

import (
	"runtime/metrics"
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
// A run makes only about ten GCs and its peak RSS moves with where they
// land, so the test also logs the largest live heap it sampled — the heap
// the last GC marked, read every 10 ms — which does not.
func TestHydEESmoke16384(t *testing.T) {
	t0 := time.Now()
	stop, peakLive := sampleLiveHeap(10 * time.Millisecond)
	smokeRun(t, 16384)
	close(stop)
	live := float64(<-peakLive) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	rss := float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	t.Logf("np=16384: wall %.2fs, peak RSS %.0f MB, peak live heap %.0f MB", time.Since(t0).Seconds(), rss, live)
	if rss > smoke16kMaxRSSMB {
		t.Errorf("peak RSS %.0f MB above the %d MB ceiling", rss, smoke16kMaxRSSMB)
	}
}

// sampleLiveHeap reads /gc/heap/live:bytes every period until stop is
// closed, then sends the largest value it read.
func sampleLiveHeap(period time.Duration) (stop chan struct{}, peak chan uint64) {
	stop, peak = make(chan struct{}), make(chan uint64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var max uint64
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return stop, peak
}

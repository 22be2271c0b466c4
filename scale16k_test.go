//go:build smoke16k

package hydee_test

import (
	"syscall"
	"testing"
	"time"
)

// TestHydEESmoke16384 runs the np=1024 smoke workload's shape at np=16384
// and logs what it cost: `make smoke16k`.
func TestHydEESmoke16384(t *testing.T) {
	t0 := time.Now()
	smokeRun(t, 16384)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	t.Logf("np=16384: wall %.2fs, peak RSS %.0f MB", time.Since(t0).Seconds(), float64(ru.Maxrss)/1024)
}

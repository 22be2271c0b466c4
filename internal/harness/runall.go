package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"hydee/internal/mpi"
)

// DefaultParallelism is the worker count RunAll uses when the caller passes
// parallelism <= 0. Each run executes on its worker's goroutine, one rank
// at a time, so one worker per CPU is the sweet spot.
func DefaultParallelism() int { return runtime.NumCPU() }

// RunAll executes independent specs through a bounded worker pool and
// returns their summaries in spec order. Every run is deterministic and
// isolated (own network, own store), so the results are identical to the
// serial path regardless of parallelism or scheduling.
//
// On the first error (in spec order), the remaining unstarted specs are
// abandoned, in-flight runs are canceled, and that error is returned.
// Cancelling ctx cancels every run.
func RunAll(ctx context.Context, specs []Spec, parallelism int) ([]*Summary, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if parallelism <= 0 {
		parallelism = DefaultParallelism()
	}
	if parallelism > len(specs) {
		parallelism = len(specs)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	sums := make([]*Summary, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sum, err := RunCtx(runCtx, specs[i])
				sums[i] = sum
				if err != nil {
					// RunCtx already names the kernel/proto; add only the index.
					errs[i] = fmt.Errorf("harness: spec %d: %w", i, err)
					cancel() // first failure stops the sweep
				}
			}
		}()
	}
	for i := range specs {
		if runCtx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()

	if err := firstFailure(errs); err != nil {
		return nil, err
	}
	for _, s := range sums {
		if s == nil {
			// The sweep was cut short before this spec was dispatched
			// (only cancellation stops dispatch); fail rather than
			// return a partial sweep. A cancellation that lands after
			// every spec completed deliberately returns the full result.
			return nil, fmt.Errorf("harness: sweep canceled: %w", context.Cause(ctx))
		}
	}
	return sums, nil
}

// firstFailure picks the error a fanned-out sweep reports: the first real
// failure in order. Runs the sweep itself canceled after that failure
// surface ErrCanceled, so it falls back to the first of those only when
// nothing else failed (a caller-canceled sweep).
func firstFailure(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpi.ErrCanceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

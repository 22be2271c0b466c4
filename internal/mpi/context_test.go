package mpi_test

// Context plumbing tests: cancellation and deadlines unwind every rank
// promptly and surface ErrCanceled.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hydee/internal/mpi"
)

// deadlocked is a program in which every rank waits forever.
func deadlocked(c *mpi.Comm) error {
	_, _, err := c.Recv((c.Rank()+1)%c.Size(), 42)
	return err
}

// livelocked is a program whose ranks pass a token around the ring
// forever: it neither ends nor deadlocks, so only its context stops it.
func livelocked(c *mpi.Comm) error {
	next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	if c.Rank() == 0 {
		if err := c.Send(next, 42, nil); err != nil {
			return err
		}
	}
	for {
		if _, _, err := c.Recv(prev, 42); err != nil {
			return err
		}
		if err := c.Send(next, 42, nil); err != nil {
			return err
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test after two seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunContextCancelUnwindsDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := mpi.RunContext(ctx, mpi.Config{NP: 8, Watchdog: time.Minute}, livelocked)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the token go round
	start := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("cancellation took %v, want < 100ms", took)
		}
		if !errors.Is(err, mpi.ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cause not preserved: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	waitGoroutines(t, before)
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := mpi.RunContext(ctx, mpi.Config{NP: 2, Watchdog: time.Minute}, livelocked)
	if !errors.Is(err, mpi.ErrCanceled) {
		t.Fatalf("want ErrCanceled on deadline, got %v", err)
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []mpi.EventKind
	_, err := mpi.RunContext(ctx, mpi.Config{
		NP: 2, Watchdog: time.Minute,
		Observer: mpi.ObserverFunc(func(ev mpi.Event) { events = append(events, ev.Kind) }),
	}, deadlocked)
	if !errors.Is(err, mpi.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// Every EvRunStart is terminated by exactly one terminal event; on
	// the error path that is EvRunAbort.
	if len(events) == 0 || events[0] != mpi.EvRunStart || events[len(events)-1] != mpi.EvRunAbort {
		t.Fatalf("lifecycle stream not delimited: %v", events)
	}
}

func TestRunContextCleanRunIgnoresContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := mpi.RunContext(ctx, mpi.Config{NP: 2, Watchdog: 10 * time.Second}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte{1})
		}
		_, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
}

// TestRunContextCanceledStopsLoneRank: a lone rank never waits on the
// delivery plane, so it cannot learn of the abort from its dead endpoint.
// Under an already-canceled context it must still return at its next Comm
// operation, whether that is Compute or an unscheduled Checkpoint, instead
// of running every step. The bound is a call count, not a wall-clock time.
func TestRunContextCanceledStopsLoneRank(t *testing.T) {
	const n = 2_000_000
	for _, tc := range []struct {
		name string
		op   func(*mpi.Comm) error
	}{
		{"Compute", func(c *mpi.Comm) error { return c.Compute(1) }},
		{"Checkpoint", (*mpi.Comm).Checkpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			calls := 0
			_, err := mpi.RunContext(ctx, mpi.Config{NP: 1}, func(c *mpi.Comm) error {
				for ; calls < n; calls++ {
					if err := tc.op(c); err != nil {
						return err
					}
				}
				return nil
			})
			if !errors.Is(err, mpi.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if calls >= n {
				t.Errorf("%s ran all %d calls under a canceled context", tc.name, calls)
			}
		})
	}
}

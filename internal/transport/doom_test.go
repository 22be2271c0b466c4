package transport

// Unit tests for the victim-aware death fence: a doomed endpoint drains
// deliveries and checkpoint-write turns at or below its fence, dies at the
// first wait provably past it, and — the naive-drain deadlock fix — is
// reaped while blocked on a victim that can no longer send.

import (
	"errors"
	"testing"
	"time"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

func TestDoomDeliversAtFenceThenKills(t *testing.T) {
	n := NewNetwork(3, netmodel.Ideal())
	send(t, n, 0, 1, 1, 49)  // arrives 50: before the fence
	send(t, n, 0, 1, 2, 99)  // arrives 100: exactly at the fence
	send(t, n, 2, 1, 3, 149) // arrives 150: past the fence
	n.Doom(1, vtime.Time(100))
	n.Quiesce(0)
	n.Quiesce(2)
	ep := n.Endpoint(1)
	for _, want := range []int{1, 2} {
		m, err := ep.Recv(0)
		if err != nil {
			t.Fatalf("pre-fence delivery %d: %v", want, err)
		}
		if m.Tag != want {
			t.Fatalf("got tag %d, want %d", m.Tag, want)
		}
	}
	if _, err := ep.Recv(0); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-fence Recv returned %v, want ErrKilled", err)
	}
}

func TestDoomCancelsPostFenceTurnKeepsPreFenceTurn(t *testing.T) {
	n := NewNetwork(3, netmodel.Ideal())
	n.Quiesce(1)
	n.Quiesce(2)
	n.Doom(0, vtime.Time(100))
	// A turn at the fence is still granted: an in-flight checkpoint write
	// issued at the detection time completes.
	if err := n.AwaitTurn(0, 100); err != nil {
		t.Fatalf("turn at the fence: %v", err)
	}
	// A turn past the fence is the write of a dead process: cancelled.
	if err := n.AwaitTurn(0, 101); !errors.Is(err, ErrKilled) {
		t.Fatalf("turn past the fence returned %v, want ErrKilled", err)
	}
}

func TestDoomReapsReceiverBlockedOnDeadVictim(t *testing.T) {
	// Rank 1 blocks in Recv waiting for rank 0, which has stopped (failed)
	// with a stale frontier below the fence. A naive drain would wait for
	// rank 0 forever; the victim-aware gate must reap rank 1 with
	// ErrKilled once the plane proves nothing at or below the fence can
	// still arrive.
	n := NewNetwork(3, netmodel.Ideal())
	done := make(chan error, 1)
	go func() {
		_, err := n.Endpoint(1).Recv(0)
		done <- err
	}()
	n.Publish(0, 90) // the victim's last word before it stopped
	n.Doom(1, vtime.Time(100))
	// Rank 0 (bound 90) and rank 2 (bound 0) can still produce pre-fence
	// stamps, so rank 1 must keep waiting.
	select {
	case err := <-done:
		t.Fatalf("reaped while pre-fence arrivals were still possible: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The supervisor quiesces the dead victim and rank 2 advances past the
	// fence: now nothing <= 100 can arrive, and the reap must fire.
	n.Quiesce(0)
	n.Publish(2, 200)
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("reap returned %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("blocked receiver not reaped; plane:\n%s", n.DebugState())
	}
}

func TestKillAndRestartClearDoom(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	n.Doom(0, vtime.Time(10))
	n.Kill(0)
	n.RestartAt(0, 50)
	n.Quiesce(1)
	// The restarted incarnation must not inherit the old fence.
	if err := n.AwaitTurn(0, 1000); err != nil {
		t.Fatalf("restarted endpoint still fenced: %v", err)
	}
}

// heldAt asserts that the latent recovery endpoint rec is bounded at b and
// that low3 names it there.
func heldAt(t *testing.T, n *Network, rec int, b vtime.Time, state string) {
	t.Helper()
	n.dmu.Lock()
	defer n.dmu.Unlock()
	e, _ := n.lookupLocked(rec)
	if got := n.boundLocked(e); got != b {
		t.Fatalf("%s: recovery endpoint bound %d, want %d\n%v", state, got, b, n.low3)
	}
	for _, r := range n.low3 {
		if r == (boundRef{b, rec}) {
			return
		}
	}
	t.Fatalf("%s: low3 %v does not hold the recovery endpoint at %d", state, n.low3, b)
}

// A recovery coordinator doomed by a failure queued behind its round holds
// the gate one hop past the fence — where the round replacing it begins —
// while it runs, while it is blocked, once it is reaped and when nothing
// else can act, whatever frontier it ran ahead to; attaching or restarting
// the endpoint releases it.
func TestDoomedRecoveryEndpointHoldsGate(t *testing.T) {
	const rec, fence, hold = 2, vtime.Time(100), vtime.Time(101)
	for _, release := range []string{"AttachAt", "RestartAt"} {
		t.Run(release, func(t *testing.T) {
			n := NewNetwork(2, netmodel.Ideal())
			n.DeclareRecovery(rec)
			n.AttachAt(rec, 50)
			n.Publish(0, 10)          // rank 0 pins everything past 11 for now
			n.Publish(rec, 300)       // the coordinator ran ahead of the fence
			send(t, n, 1, rec, 1, 49) // a report arriving at 50, within the fence
			n.Doom(rec, fence)
			heldAt(t, n, rec, hold, "running")

			done := make(chan error, 1)
			go func() {
				ep := n.Endpoint(rec)
				if _, err := ep.Recv(300); err != nil {
					done <- err
					return
				}
				_, err := ep.Recv(300)
				done <- err
			}()
			for !n.Quiescent(1) { // blocked on the report rank 0 still pins
				time.Sleep(time.Millisecond)
			}
			heldAt(t, n, rec, hold, "blocked")

			// Rank 0 moves past the fence: the report is delivered, and once
			// rank 1 can no longer send within the fence the coordinator is
			// reaped.
			n.Publish(0, 200)
			n.Quiesce(1)
			if err := <-done; !errors.Is(err, ErrKilled) {
				t.Fatalf("doomed coordinator's second Recv returned %v, want ErrKilled", err)
			}
			heldAt(t, n, rec, hold, "reaped")
			send(t, n, -1, 0, 1, 100) // arrives 101: below the hold, delivered
			send(t, n, -1, 0, 2, 149) // arrives 150: past it, held back
			ep0 := n.Endpoint(0)
			if m, ok, _ := ep0.TryRecv(0); !ok || m.Tag != 1 {
				t.Fatalf("delivery at 101 refused under the hold at %d", hold)
			}
			if _, ok, _ := ep0.TryRecv(0); ok {
				t.Fatalf("delivery at 150 admitted under the hold at %d", hold)
			}
			n.Quiesce(0)
			heldAt(t, n, rec, hold, "alone") // nothing else can act: m1 is infinite

			if release == "AttachAt" {
				n.AttachAt(rec, hold)
			} else {
				n.RestartAt(rec, hold)
			}
			n.Publish(rec, 300) // the next coordinator runs ahead unheld
			heldAt(t, n, rec, 300, "released")
			if m, ok, _ := ep0.TryRecv(0); !ok || m.Tag != 2 {
				t.Fatalf("delivery at 150 still held after %s", release)
			}
		})
	}
}

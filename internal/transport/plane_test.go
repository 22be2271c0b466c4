package transport

import (
	"fmt"
	"testing"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

// parkInRecv parks rank's endpoint in Recv(0) through the locked step Recv
// takes, without a goroutine; its head must not be deliverable.
func parkInRecv(tb testing.TB, n *Network, rank int) {
	e := n.Endpoint(rank)
	n.dmu.Lock()
	defer n.unlock()
	e.kind, e.at = wRecv, 0
	n.receiveLocked([]*Endpoint{e})
	if e.waiting == wNone {
		tb.Fatalf("rank %d: Recv did not have to wait (err %v)", rank, e.err)
	}
}

// exchangePlane builds the configuration the benchmark's plane probe
// measures — np-2 receivers parked behind far-future heads the gate cannot
// pass, ranks 0 and 1 free — and returns the network and a step function
// that makes the two free ranks exchange a message: two sends, two
// publishes, two receives, six mutations. The receivers are parked through
// the calls Recv makes, without goroutines, so every count is exact.
func exchangePlane(tb testing.TB, np int) (*Network, func()) {
	model := netmodel.Myrinet10G()
	n := NewNetwork(np, model)
	const farFuture = vtime.Time(1) << 50
	for i := 2; i < np; i++ {
		if err := n.Send(&Msg{Src: np, Dst: i, Kind: App, WireLen: 8, SendVT: farFuture}); err != nil {
			tb.Fatal(err)
		}
		parkInRecv(tb, n, i)
	}
	eps := [2]*Endpoint{n.Endpoint(0), n.Endpoint(1)}
	hop := model.Latency(256) + vtime.Microsecond
	var clock vtime.Time
	return n, func() {
		clock = clock.Add(hop)
		for i := 0; i < 2; i++ {
			if err := n.Send(&Msg{Src: i, Dst: 1 - i, Kind: App, WireLen: 256, SendVT: clock}); err != nil {
				tb.Fatal(err)
			}
		}
		clock = clock.Add(hop)
		for i := 0; i < 2; i++ {
			n.Publish(i, clock)
		}
		for i := 0; i < 2; i++ {
			if _, ok, err := eps[i].TryRecv(clock); err != nil || !ok {
				tb.Fatalf("rank %d: message not deliverable (err %v)", i, err)
			}
		}
	}
}

// TestPlaneWorkSublinear gates on the plane's work per mutation growing
// sub-linearly in the number of endpoints: the count is exact and
// repeatable, so it can fail a build where a wall-clock number cannot.
// Before the index the ratio below was 64.
func TestPlaneWorkSublinear(t *testing.T) {
	visitsPerMutation := func(np int) float64 {
		n, step := exchangePlane(t, np)
		before := n.Counters()
		for i := 0; i < 100; i++ {
			step()
		}
		c := n.Counters()
		if got := c.Mutations - before.Mutations; got != 600 {
			t.Fatalf("np=%d: %d mutations in 100 exchanges, want 600", np, got)
		}
		if c.Served != 0 {
			t.Fatalf("np=%d: %d waiters served; none can pass", np, c.Served)
		}
		return float64(c.Visited-before.Visited) / 600
	}
	small, large := visitsPerMutation(64), visitsPerMutation(4096)
	t.Logf("visited per mutation: %.1f at np=64, %.1f at np=4096", small, large)
	if large > 3*small {
		t.Errorf("plane work per mutation grew %.1fx from np=64 to np=4096, want <= 3x", large/small)
	}
	if again := visitsPerMutation(4096); again != large {
		t.Errorf("visited per mutation is not repeatable: %v then %v", large, again)
	}
}

// TestPlaneTiedWaitersAreNotRevisited: ranks of a symmetric application
// carry identical clocks, so a plane full of receivers whose head arrival
// equals low3[0]'s threshold exactly, and loses the source tiebreak, is the
// normal case. A change of low3 that leaves low3[0] alone must not gate-check
// any of them again.
func TestPlaneTiedWaitersAreNotRevisited(t *testing.T) {
	const np = 1024
	model := netmodel.Myrinet10G()
	n := NewNetwork(np, model)
	sendVT := vtime.Time(10_000)
	arrive := sendVT.Add(model.Latency(256))
	for i := 2; i < np; i++ {
		if err := n.Send(&Msg{Src: 1, Dst: i, Kind: App, WireLen: 256, SendVT: sendVT}); err != nil {
			t.Fatal(err)
		}
	}
	n.Quiesce(1)
	// Rank 0 can still emit a message arriving exactly when the heads do,
	// and its id sorts before their source's: every head stays gated.
	n.Publish(0, arrive-vtime.Time(n.MinLatency()))
	for i := 2; i < np; i++ {
		parkInRecv(t, n, i)
	}
	before := n.Counters()
	for i := 0; i < 100; i++ { // a service source comes and goes as low3[1]
		n.AttachAt(np, arrive-1)
		n.Quiesce(np)
	}
	c := n.Counters()
	if got := c.Low3Changes - before.Low3Changes; got != 200 {
		t.Fatalf("%d low3 changes in 200 mutations, want 200", got)
	}
	if c.Served != 0 {
		t.Fatalf("%d waiters served; none can pass", c.Served)
	}
	if per := float64(c.Visited-before.Visited) / 200; per > 100 {
		t.Errorf("%.0f visits per mutation with %d tied waiters parked, want a few dozen", per, np-2)
	}
}

// BenchmarkPlaneMutation is the host cost of one plane mutation in the same
// configuration, per plane size.
func BenchmarkPlaneMutation(b *testing.B) {
	for _, np := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			_, step := exchangePlane(b, np)
			b.ResetTimer()
			for i := 0; i < b.N; i += 6 {
				step()
			}
		})
	}
}

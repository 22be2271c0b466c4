package transport

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

func send(t *testing.T, n *Network, src, dst int, tag int, at vtime.Time) {
	t.Helper()
	err := n.Send(&Msg{Src: src, Dst: dst, Kind: App, Tag: tag, Data: []byte{byte(tag)}, SendVT: at})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerChannel(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	for i := 0; i < 100; i++ {
		send(t, n, 0, 1, i, 0)
	}
	ep := n.Endpoint(1)
	for i := 0; i < 100; i++ {
		m, err := ep.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != i {
			t.Fatalf("out of order: got %d want %d", m.Tag, i)
		}
	}
}

// TestFIFOAcrossSequenceWrap holds a channel to FIFO order while its 32-bit
// sequence number wraps among messages queued with one arrival time.
func TestFIFOAcrossSequenceWrap(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	send(t, n, 0, 1, 0, 0)
	ep := n.Endpoint(1)
	if _, err := ep.Recv(0); err != nil {
		t.Fatal(err)
	}
	ep.chans[0].seq = math.MaxUint32 - 2
	for i := 1; i <= 6; i++ {
		send(t, n, 0, 1, i, 0)
	}
	for i := 1; i <= 6; i++ {
		m, err := ep.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != i {
			t.Fatalf("out of order across the wrap: got %d want %d", m.Tag, i)
		}
	}
}

func TestArrivalStamping(t *testing.T) {
	model := netmodel.Myrinet10G()
	n := NewNetwork(2, model)
	at := vtime.Time(1000)
	err := n.Send(&Msg{Src: 0, Dst: 1, Kind: App, Data: make([]byte, 64), SendVT: at})
	if err != nil {
		t.Fatal(err)
	}
	m, err := n.Endpoint(1).Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	want := at.Add(model.Latency(64))
	if m.ArriveVT != want {
		t.Fatalf("arrival %v, want %v", m.ArriveVT, want)
	}
}

func TestFIFOClampMakesArrivalMonotonePerChannel(t *testing.T) {
	// A small message posted right after a large one on the same channel
	// would overtake it by raw latency; FIFO channels admit no overtaking,
	// so its arrival is clamped to the predecessor's.
	model := netmodel.Myrinet10G()
	n := NewNetwork(2, model)
	err := n.Send(&Msg{Src: 0, Dst: 1, Kind: App, Tag: 1, WireLen: 100 << 10, SendVT: 0})
	if err != nil {
		t.Fatal(err)
	}
	err = n.Send(&Msg{Src: 0, Dst: 1, Kind: App, Tag: 2, WireLen: 1, SendVT: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep := n.Endpoint(1)
	m1, err := ep.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ep.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Tag != 1 || m2.Tag != 2 {
		t.Fatalf("FIFO order violated: got tags %d,%d", m1.Tag, m2.Tag)
	}
	if m2.ArriveVT != m1.ArriveVT {
		t.Fatalf("small message not clamped: %v vs %v", m2.ArriveVT, m1.ArriveVT)
	}
}

func TestDeliveryFollowsVirtualTimeNotEnqueueOrder(t *testing.T) {
	// Src 2 enqueues first in real time but with the later virtual stamp;
	// the receiver must still see virtual-time order.
	n := NewNetwork(3, netmodel.Myrinet10G())
	send(t, n, 2, 1, 22, 100_000)
	send(t, n, 0, 1, 11, 50_000)
	// Neither message is deliverable while the other sender could still
	// produce an earlier stamp; retire both senders.
	n.Quiesce(0)
	n.Quiesce(2)
	ep := n.Endpoint(1)
	m1, err := ep.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ep.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Tag != 11 || m2.Tag != 22 {
		t.Fatalf("virtual-time order violated: got tags %d,%d", m1.Tag, m2.Tag)
	}
}

func TestRecvGatesOnLaggingSenderFrontier(t *testing.T) {
	// A queued message is not handed out while a third process's frontier
	// still admits an earlier stamp; publishing the frontier past the
	// message releases it.
	n := NewNetwork(3, netmodel.Myrinet10G())
	send(t, n, 0, 1, 7, 50_000) // arrives ~53µs
	got := make(chan *Msg, 1)
	go func() {
		m, err := n.Endpoint(1).Recv(0)
		if err == nil {
			got <- m
		}
	}()
	select {
	case <-got:
		t.Fatal("message delivered while src 2 could still produce an earlier stamp")
	case <-time.After(20 * time.Millisecond):
	}
	for !n.Quiescent(1) { // until rank 1 is parked
		time.Sleep(time.Millisecond)
	}
	if dump := n.DebugState(); !strings.Contains(dump, "deliverable=false pinned-by={ep 2 bound=0}") {
		t.Fatalf("DebugState does not name the source pinning rank 1:\n%s", dump)
	}
	n.Publish(2, 60_000) // now any message from 2 must arrive after 53µs+ε
	select {
	case m := <-got:
		if m.Tag != 7 {
			t.Fatalf("got tag %d", m.Tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery not released by frontier publish")
	}
}

func TestBlockedReceiverFrontierUnblocksPeers(t *testing.T) {
	// Src 2 never publishes explicitly, but blocking in Recv pins its
	// frontier at its clock, and the transitive bound (it must deliver
	// something itself before it can send) releases rank 1's message.
	n := NewNetwork(3, netmodel.Myrinet10G())
	send(t, n, 0, 1, 7, 50_000)
	got := make(chan *Msg, 1)
	go func() {
		m, err := n.Endpoint(1).Recv(0)
		if err == nil {
			got <- m
		}
	}()
	go func() {
		// Rank 2 blocks at a clock past the message's arrival; it cannot
		// send before that.
		_, _ = n.Endpoint(2).Recv(60_000)
	}()
	select {
	case m := <-got:
		if m.Tag != 7 {
			t.Fatalf("got tag %d", m.Tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked receiver's frontier did not release the delivery")
	}
	n.Kill(2) // reap the helper goroutine
}

func TestPiggybackInflatesWire(t *testing.T) {
	model := netmodel.Myrinet10G()
	n := NewNetwork(2, model)
	err := n.Send(&Msg{Src: 0, Dst: 1, Kind: App, WireLen: 100, PiggyLen: 16, SendVT: 0})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := n.Endpoint(1).Recv(0)
	if m.Wire() != 116 {
		t.Fatalf("wire %d, want 116", m.Wire())
	}
	if m.ArriveVT != vtime.Time(model.Latency(116)) {
		t.Fatalf("latency not computed on inflated wire size")
	}
}

func TestKillWipesMailboxAndUnblocks(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	send(t, n, 0, 1, 1, 0)

	ep := n.Endpoint(1)
	queued := func() int {
		n.dmu.Lock()
		defer n.dmu.Unlock()
		return len(ep.q)
	}
	done := make(chan error, 1)
	go func() {
		if _, err := ep.Recv(0); err != nil { // consumes the queued message
			done <- err
			return
		}
		_, err := ep.Recv(0) // blocks until kill
		done <- err
	}()
	// Wait for the goroutine to consume then block.
	for queued() > 0 {
		runtime.Gosched()
	}
	if inc := n.Kill(1); inc != 1 {
		t.Fatalf("incarnation %d, want 1", inc)
	}
	if err := <-done; err != ErrKilled {
		t.Fatalf("blocked receiver got %v, want ErrKilled", err)
	}
	// Arrivals while dead are dropped: they never reach the queue.
	send(t, n, 0, 1, 2, 0)
	if q := queued(); q != 0 {
		t.Fatalf("%d arrivals queued at the dead endpoint, want none", q)
	}
	// Restart revives with an empty mailbox.
	n.RestartAt(1, 0)
	if q := queued(); q != 0 {
		t.Fatalf("queued after restart: %d", q)
	}
	send(t, n, 0, 1, 3, 0)
	m, err := n.Endpoint(1).Recv(0)
	if err != nil || m.Tag != 3 {
		t.Fatalf("revived endpoint broken: %v %v", m, err)
	}
}

func TestKillLeavesPeerMailboxesIntact(t *testing.T) {
	// A message already enqueued at a live process survives its sender's
	// death: pre-checkpoint sends are not rolled back (see Kill docs).
	n := NewNetwork(2, netmodel.Ideal())
	send(t, n, 0, 1, 7, 0)
	n.Kill(0)
	m, err := n.Endpoint(1).Recv(0)
	if err != nil || m.Tag != 7 {
		t.Fatalf("peer mailbox was purged: %v %v", m, err)
	}
}

func TestIncarnationStamping(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	send(t, n, 0, 1, 1, 0)
	n.Kill(0)
	n.RestartAt(0, 0)
	send(t, n, 0, 1, 2, 0)
	m1, _ := n.Endpoint(1).Recv(0)
	m2, _ := n.Endpoint(1).Recv(0)
	if m1.Inc != 0 || m2.Inc != 1 {
		t.Fatalf("incarnations %d,%d want 0,1", m1.Inc, m2.Inc)
	}
	if n.IncOf(0) != 1 || n.IncOf(1) != 0 {
		t.Fatal("IncOf wrong")
	}
	incs := n.Incs()
	if len(incs) != 2 || incs[0] != 1 {
		t.Fatalf("Incs snapshot wrong: %v", incs)
	}
}

func TestAccountingMatrix(t *testing.T) {
	n := NewNetwork(3, netmodel.Ideal())
	for i := 0; i < 4; i++ {
		err := n.Send(&Msg{Src: 0, Dst: 2, Kind: App, WireLen: 100, PiggyLen: 8})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Control traffic is not accounted.
	_ = n.Send(&Msg{Src: 0, Dst: 2, Kind: Ctl, WireLen: 999})
	// Only the used direction is listed.
	want := []Traffic{{Src: 0, Dst: 2, PairStat: PairStat{Msgs: 4, Bytes: 400, PiggyBytes: 32}}}
	if st := n.Stats(); !slices.Equal(st, want) {
		t.Fatalf("accounting wrong: %+v, want %+v", st, want)
	}
}

func TestServiceEndpoints(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	rec := n.Endpoint(2) // recovery-process endpoint, created on demand
	err := n.Send(&Msg{Src: 0, Dst: 2, Kind: Ctl, CtlBody: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Recv(0)
	if err != nil || m.CtlBody != "hello" {
		t.Fatalf("service endpoint broken: %v %v", m, err)
	}
	if inc := n.Kill(2); inc != 0 {
		t.Fatalf("killing a service endpoint returned incarnation %d, want 0", inc)
	}
	if _, err := rec.Recv(0); err != ErrKilled {
		t.Fatal("Kill did not kill the service endpoint")
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	if err := n.Send(&Msg{Src: 0, Dst: 99}); err == nil {
		t.Fatal("send to unknown endpoint accepted")
	}
}

func TestTryRecv(t *testing.T) {
	n := NewNetwork(2, netmodel.Ideal())
	ep := n.Endpoint(1)
	if _, ok, err := ep.TryRecv(0); ok || err != nil {
		t.Fatal("TryRecv on empty mailbox should report not-ok")
	}
	send(t, n, 0, 1, 5, 0)
	m, ok, err := ep.TryRecv(0)
	if !ok || err != nil || m.Tag != 5 {
		t.Fatalf("TryRecv failed: %v %v %v", m, ok, err)
	}
	n.Kill(1)
	if _, _, err := ep.TryRecv(0); err != ErrKilled {
		t.Fatal("TryRecv on dead endpoint should fail")
	}
}

func TestConcurrentSendersKeepPerChannelFIFO(t *testing.T) {
	const (
		senders = 8
		msgs    = 500
	)
	n := NewNetwork(senders+1, netmodel.Ideal())
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				_ = n.Send(&Msg{Src: s, Dst: senders, Kind: App, Tag: i, SendVT: vtime.Time(i)})
			}
			// Retire the sender so the gate stops waiting on it.
			n.Quiesce(s)
		}(s)
	}
	seen := make([]int, senders)
	ep := n.Endpoint(senders)
	for k := 0; k < senders*msgs; k++ {
		m, err := ep.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != seen[m.Src] {
			t.Fatalf("channel %d out of order: got %d want %d", m.Src, m.Tag, seen[m.Src])
		}
		seen[m.Src]++
	}
	wg.Wait()
}

// TestDeliverySequenceIsSchedulingIndependent drains the same virtual-time
// traffic pattern twice with concurrent, real-time-racing senders and
// asserts the delivered sequences are identical — the property the whole
// delivery plane exists for.
func TestDeliverySequenceIsSchedulingIndependent(t *testing.T) {
	const (
		senders = 6
		msgs    = 200
	)
	run := func() []string {
		n := NewNetwork(senders+1, netmodel.Myrinet10G())
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					// Deterministic virtual schedule, racing in real time.
					at := vtime.Time(s*7_001 + i*13_007)
					_ = n.Send(&Msg{Src: s, Dst: senders, Kind: App, Tag: i,
						WireLen: 1 + (s+i)%512, SendVT: at})
				}
				n.Quiesce(s)
			}(s)
		}
		ep := n.Endpoint(senders)
		var seq []string
		for k := 0; k < senders*msgs; k++ {
			m, err := ep.Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, fmt.Sprintf("%d/%d@%d", m.Src, m.Tag, m.ArriveVT))
		}
		wg.Wait()
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery sequence diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRecvAndTurnHandOffUnderContention: 64 goroutines ping-pong through
// FlushRecv, a marker the take keeps ahead of every message, and 8 more
// take turns with FlushAwaitTurn, each turn flushing a send, while another
// cycles Publish, Doom and TryRecv on a spare endpoint, so under the
// default goroutine Driver the plane lock is contended from every side and
// most waits are served by another goroutine's mutation. Every wait must
// return — a serve whose token is lost hangs its goroutine, and the
// deadline fails the test —, every receive with the message it waited
// for, every turn granted in (vt, id) order across the turn takers, and
// the plane must end quiescent, every park served once. make determinism
// runs it under the race detector on one, two and eight cores; the take
// each receive passes reads its goroutine's round and counts what it is
// handed, so the detector also checks that the serving goroutine sees what
// the owner wrote before it waited, and the owner what the serving
// goroutine wrote.
func TestRecvAndTurnHandOffUnderContention(t *testing.T) {
	const ranks, takers, rounds, spare = 64, 8, 300, 64
	n := NewNetwork(ranks+1+takers, netmodel.Myrinet10G())
	var wg sync.WaitGroup
	errs := make(chan error, ranks+takers)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.Quiesce(r) // an exited goroutine stops constraining the gate
			ep, peer := n.Endpoint(r), r^1
			var clock vtime.Time
			var k, taken int
			take := func(m *Msg) Verdict {
				taken++
				if m.Kind == App && m.Tag == k {
					return Deliver
				}
				return Keep
			}
			for k = 0; k < rounds; k++ {
				out := []*Msg{
					{Src: r, Dst: peer, Kind: Marker, Tag: k, WireLen: 8, SendVT: clock},
					{Src: r, Dst: peer, Kind: App, Tag: k, WireLen: 64, SendVT: clock},
				}
				m, err := ep.FlushRecv(out, clock, take)
				if err != nil || m.Src != peer || m.Tag != k || taken != 2*(k+1) {
					errs <- fmt.Errorf("rank %d round %d: got %v, %v after %d taken", r, k, m, err, taken)
					return
				}
				clock = max(clock, m.ArriveVT) + 1
			}
		}()
	}
	// A granted turn's taker acts before any later turn is granted: the
	// later one needs the taker's bound past it, which only its next
	// request or its exit gives. So the grants, listed as each returns,
	// come in (vt, id) order.
	var grantMu sync.Mutex
	var grants []boundRef
	for id := spare + 1; id <= spare+takers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.Quiesce(id)
			ep := n.Endpoint(id)
			for k := 0; k < rounds; k++ {
				vt := vtime.Time(k*3_000 + id)
				out := []*Msg{{Src: id, Dst: spare, Kind: Ctl, WireLen: 8, SendVT: vt}}
				if err := ep.FlushAwaitTurn(out, vt); err != nil {
					errs <- fmt.Errorf("turn taker %d round %d: %v", id, k, err)
					return
				}
				grantMu.Lock()
				grants = append(grants, boundRef{vt, id})
				grantMu.Unlock()
			}
		}()
	}
	ranksDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(ranksDone)
	}()
	cyclerDone := make(chan struct{})
	go func() {
		defer close(cyclerDone)
		ep := n.Endpoint(spare)
		// The spare's frontier trails the ranks' clocks, a few
		// microseconds a round, so its publishes keep releasing parked
		// receivers; a doom every 50 steps and the TryRecv that reaps it
		// take it off the gate until the next publish revives it.
		for t := vtime.Time(0); ; t += 1_000 {
			select {
			case <-ranksDone:
				n.Quiesce(spare)
				return
			default:
			}
			n.Publish(spare, t)
			if t%50_000 == 0 {
				n.Doom(spare, t)
			}
			if _, _, err := ep.TryRecv(t); err != nil && err != ErrKilled {
				errs <- err
			}
			runtime.Gosched() // on one core the ranks run between steps
		}
	}()
	select {
	case <-cyclerDone:
	case <-time.After(60 * time.Second):
		t.Fatalf("waits still blocked after 60s; plane:\n%s", n.DebugState())
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(grants) != takers*rounds {
		t.Errorf("%d turns granted, want %d", len(grants), takers*rounds)
	}
	for i := 1; i < len(grants); i++ {
		if !grants[i-1].less(grants[i]) {
			t.Errorf("turn %v granted before turn %v", grants[i-1], grants[i])
		}
	}
	if !n.Quiescent(0) {
		t.Errorf("plane not quiescent at the end:\n%s", n.DebugState())
	}
	c := n.Counters()
	t.Logf("plane counters: %+v", c)
	if c.Served != c.Parks {
		t.Errorf("%d parks, %d served: every park must be served exactly once", c.Parks, c.Served)
	}
}

// TestAwaitTurnOrdersActions checks that AwaitTurn admits contenders in
// virtual-time order with the id tiebreak, regardless of who asks first.
func TestAwaitTurnOrdersActions(t *testing.T) {
	n := NewNetwork(3, netmodel.Ideal())
	var mu sync.Mutex
	var order []int

	var wg sync.WaitGroup
	turn := func(id int, vt vtime.Time) {
		defer wg.Done()
		if err := n.AwaitTurn(id, vt); err != nil {
			t.Errorf("AwaitTurn(%d): %v", id, err)
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		// The action is done; move the frontier past every contender.
		n.Publish(id, 1_000_000)
	}
	wg.Add(3)
	go turn(2, 100) // later VT, asks first
	time.Sleep(10 * time.Millisecond)
	go turn(1, 50)
	go turn(0, 50) // tied with 1; lower id goes first
	wg.Wait()

	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
}

// TestRestartRewindsFrontier: a rolled-back rank whose pre-kill frontier
// ran ahead of the detection time resumes BELOW its stale frontier; the
// revived bound must be the resume time, or the gate would admit stamps the
// restarted rank's re-executed sends can still undercut.
func TestRestartRewindsFrontier(t *testing.T) {
	n := NewNetwork(3, netmodel.Myrinet10G())
	n.Publish(2, 70_000) // rank 2 ran ahead of the failure's detection time
	n.Kill(2)
	n.RestartAt(2, 60_000) // resumes from a checkpoint read at DetectVT=60µs
	n.Quiesce(0)
	send(t, n, 0, 1, 9, 61_700) // arrives ~65µs — rank 2 can still undercut it

	got := make(chan *Msg, 1)
	go func() {
		m, err := n.Endpoint(1).Recv(0)
		if err == nil {
			got <- m
		}
	}()
	select {
	case <-got:
		t.Fatal("delivered while the restarted rank could still produce an earlier stamp")
	case <-time.After(20 * time.Millisecond):
	}
	n.Publish(2, 65_000) // the restarted rank caught up past the stamp
	select {
	case m := <-got:
		if m.Tag != 9 {
			t.Fatalf("got tag %d", m.Tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery not released after the restarted rank advanced")
	}
}

// TestAttachAtRewindsFrontier: re-attaching the recovery endpoint at a new
// round's detection time must rewind a stale frontier left by an earlier
// round that ended later in virtual time.
func TestAttachAtRewindsFrontier(t *testing.T) {
	n := NewNetwork(2, netmodel.Myrinet10G())
	rec := 2
	n.Endpoint(rec)
	n.Publish(rec, 80_000) // previous round ended at 80µs
	n.Quiesce(rec)
	n.Quiesce(0)
	n.AttachAt(rec, 50_000) // new round detected at 50µs
	send(t, n, 0, 1, 5, 51_700)

	got := make(chan *Msg, 1)
	go func() {
		m, err := n.Endpoint(1).Recv(0)
		if err == nil {
			got <- m
		}
	}()
	select {
	case <-got:
		t.Fatal("delivered while the re-attached recovery could still produce an earlier stamp")
	case <-time.After(20 * time.Millisecond):
	}
	n.Publish(rec, 60_000)
	select {
	case m := <-got:
		if m.Tag != 5 {
			t.Fatalf("got tag %d", m.Tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery not released after the recovery advanced")
	}
}

func TestKindString(t *testing.T) {
	if App.String() != "app" || Ctl.String() != "ctl" || Marker.String() != "marker" {
		t.Fatal("kind strings wrong")
	}
}

package mpi

import (
	"math/rand"
	"runtime"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// captureState is the shape of ckpt-ec-churn64's rank state: a counter,
// a step and a seeded image.
type captureState struct {
	Acc  uint64
	Iter int
	Img  []byte
}

// captureProc is a rank of the native protocol whose state is a
// captureState with an n-byte seeded image.
func captureProc(n int) *Proc {
	st := &captureState{Acc: 1, Img: make([]byte, n)}
	rand.New(rand.NewSource(int64(n))).Read(st.Img)
	return &Proc{
		clock:       vtime.NewClock(0),
		engine:      rollback.Native().NewEngine(0, nil),
		stateTarget: st,
	}
}

// BenchmarkCapture is what a checkpoint builds before the store sees it:
// Proc.capture — the engine's hook and the mailbox scan — and the save's
// encodes, of the protocol state into ProtState (none for the native
// engine here; BenchmarkEngineOnCheckpoint's encode half in internal/core
// measures HydEE's) and of the application state into AppState, at 64 KiB
// and 512 KiB images with an empty mailbox. Each encode's buffer goes back
// to its codec at once, as a save gives it back once a copying store has
// staged it, so the steady state encodes into warm memory.
func BenchmarkCapture(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64K", 64 << 10}, {"512K", 512 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			p := captureProc(size.n)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for b.Loop() {
				sv := &save{snap: p.capture(1, []int{0})}
				if err := sv.encode(p.stateTarget); err != nil {
					b.Fatal(err)
				}
				sv.release()
			}
		})
	}
}

// TestCaptureSteadyStateAllocates bounds what steady-state saves of a 512
// KiB image allocate before their turn: the capture, then the save's own
// goroutine — the image's encode and an ec:4+2 stage — with each staged
// save discarded, as a save refused its turn is. Each encodes into the
// buffer the previous one released and stages into the fragments the
// previous discard gave back, so twenty of them cost bookkeeping, not
// images (encoding into fresh buffers allocated about 21 MiB).
func TestCaptureSteadyStateAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	// One P: a pool keeps what was put back on a P's private slot, which
	// a goroutine that has moved to another P cannot take.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := captureProc(512 << 10)
	st, err := checkpoint.NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() {
		sv := &save{snap: p.capture(1, []int{0}), done: make(chan struct{})}
		go sv.stage(st, p.stateTarget)
		<-sv.done
		if sv.err != nil {
			t.Fatal(sv.err)
		}
		sv.staged.Discard()
		sv.release()
	}
	capture()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		capture()
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("20 steady-state saves of a 512 KiB image allocated %d B before their turn, want under 1 MiB", n)
	}
}

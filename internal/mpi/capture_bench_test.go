package mpi

import (
	"math/rand"
	"runtime"
	"testing"

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

// BenchmarkCapture is Proc.capture alone, the part of a checkpoint that
// precedes the store: the application state gob-encoded into AppState,
// the protocol state and the mailbox scan, at 64 KiB and 512 KiB images
// with an empty mailbox. Each capture's buffer goes back to its codec at
// once, as the runtime gives it back once a copying store has staged it,
// so the steady state encodes into warm memory.
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
				_, release, err := p.capture(1, []int{0})
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
	}
}

// TestCaptureSteadyStateAllocates bounds what steady-state captures of a
// 512 KiB image allocate: each encodes into the buffer the previous one
// released, so twenty of them cost bookkeeping, not images (encoding into
// fresh buffers allocated about 21 MiB).
func TestCaptureSteadyStateAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	// One P: a pool keeps what was put back on a P's private slot, which
	// a goroutine that has moved to another P cannot take.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := captureProc(512 << 10)
	capture := func() {
		_, release, err := p.capture(1, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	capture()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		capture()
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("20 steady-state captures of a 512 KiB image allocated %d B, want under 1 MiB", n)
	}
}

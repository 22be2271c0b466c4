package mpi

import (
	"math/rand"
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

// BenchmarkCapture is Proc.capture alone, the part of a checkpoint that
// precedes the store: the application state gob-encoded into AppState
// (gob's two copies of the image), the protocol state and the mailbox
// scan, at 64 KiB and 512 KiB images with an empty mailbox.
func BenchmarkCapture(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64K", 64 << 10}, {"512K", 512 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			st := &captureState{Acc: 1, Img: make([]byte, size.n)}
			rand.New(rand.NewSource(int64(size.n))).Read(st.Img)
			p := &Proc{
				clock:       vtime.NewClock(0),
				engine:      rollback.Native().NewEngine(0, nil),
				stateTarget: st,
			}
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.capture(1, []int{0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

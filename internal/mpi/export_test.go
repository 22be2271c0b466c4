package mpi

import (
	"math"

	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// PoisonReleased makes release fill envelopes with poison instead of
// zeroing them, until the returned func restores zeroing: a source no rank
// has, a kind no message has, an arrival at the end of time and a payload
// that decodes to NaNs. A read of an envelope after its release then shows
// in the run's result. Runs must not be in progress while it switches.
func PoisonReleased() (restore func()) {
	releasedMsg = transport.Msg{
		Src:      -7,
		Kind:     255,
		ArriveVT: vtime.Time(math.MaxInt64),
		Data:     []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	return func() { releasedMsg = transport.Msg{} }
}

package erasure

import (
	"bytes"
	"testing"
)

// FuzzECRoundTrip throws arbitrary (k, m, erasure pattern, data) at the
// codec: whenever at most m shards are erased, reconstruction must
// return the original bytes. kSel/mSel/loseSel are reduced into valid
// ranges so every input exercises a real code.
func FuzzECRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(0b11), []byte("checkpoint snapshot bytes"))
	f.Add(uint8(1), uint8(1), uint16(1), []byte{})
	f.Add(uint8(7), uint8(3), uint16(0b1010010), bytes.Repeat([]byte{0xEE}, 300))
	f.Add(uint8(3), uint8(1), uint16(0b101), bytes.Repeat([]byte("0123456789abcdefghijklmnopqrstu"), 17))
	f.Fuzz(func(t *testing.T, kSel, mSel uint8, loseMask uint16, data []byte) {
		k := int(kSel)%12 + 1
		m := int(mSel)%8 + 1
		// Both kernel bodies encode and rebuild every input; each must
		// round-trip on its own.
		bodies(func(body string) {
			c, err := New(k, m)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", k, m, err)
			}
			shards := c.Split(data)
			lost := 0
			for i := range shards {
				if loseMask&(1<<uint(i)) != 0 && lost < m {
					shards[i] = nil
					lost++
				}
			}
			img, err := c.Reconstruct(shards)
			if err != nil {
				t.Fatalf("%s (%d,%d) lost=%d len=%d: %v", body, k, m, lost, len(data), err)
			}
			if !bytes.Equal(img[:len(data)], data) {
				t.Fatalf("%s (%d,%d) lost=%d: round trip corrupted %d data bytes", body, k, m, lost, len(data))
			}
		})
	})
}

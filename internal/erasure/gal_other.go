//go:build !amd64

package erasure

// useAVX2 is false off amd64: the table body is the whole kernel, so no
// kernel compiles nibble tables and mulPairAVX2 is never reached.
var useAVX2 = false

func mulPairAVX2(tabs []nibbles, in [][]byte, d0, d1 []byte) {
	panic("erasure: AVX2 kernel body on a platform without it")
}

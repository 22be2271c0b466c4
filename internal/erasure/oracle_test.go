package erasure

// The pre-kernel implementation, kept as the oracle: log/exp field
// arithmetic, the per-coefficient multiply-accumulate loop, and
// Gauss–Jordan elimination carried out over every payload byte. The
// table kernel must agree with it byte for byte.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// gfExp/gfLog are the exponential and logarithm tables of the group
// generated by 2 modulo gfPoly. gfExp is doubled so gfMul can index
// gfLog[a]+gfLog[b] without reducing modulo 255.
var (
	gfExp [510]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x >= 256 {
			x ^= gfPoly
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte { return gfExp[255-int(gfLog[a])] }

// gfMulSlice accumulates dst ^= c * src for a whole shard.
func gfMulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	lc := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[s])]
		}
	}
}

// refSplit is Split by the accumulate loop.
func refSplit(c *Code, data []byte) [][]byte {
	size := c.ShardSize(len(data))
	shards := make([][]byte, c.N())
	for j := 0; j < c.k; j++ {
		sh := make([]byte, size)
		if lo := j * size; lo < len(data) {
			copy(sh, data[lo:])
		}
		shards[j] = sh
	}
	for i := 0; i < c.m; i++ {
		p := make([]byte, size)
		for j := 0; j < c.k; j++ {
			gfMulSlice(p, shards[j], c.parity[i][j])
		}
		shards[c.k+i] = p
	}
	return shards
}

// refReconstruct is Reconstruct by elimination applied to the shard
// payloads in lockstep with the matrix. It expects at least k survivors
// of one length.
func refReconstruct(c *Code, shards [][]byte) []byte {
	var mat, rhs [][]byte
	for i := 0; i < c.N() && len(mat) < c.k; i++ {
		if shards[i] == nil {
			continue
		}
		row := make([]byte, c.k)
		if i < c.k {
			row[i] = 1
		} else {
			copy(row, c.parity[i-c.k])
		}
		mat = append(mat, row)
		rhs = append(rhs, append([]byte(nil), shards[i]...))
	}
	for col := 0; col < c.k; col++ {
		pivot := col
		for mat[pivot][col] == 0 {
			pivot++
		}
		mat[col], mat[pivot] = mat[pivot], mat[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := gfInv(mat[col][col])
		for j := range mat[col] {
			mat[col][j] = gfMul(mat[col][j], inv)
		}
		for i, v := range rhs[col] {
			rhs[col][i] = gfMul(v, inv)
		}
		for r := 0; r < c.k; r++ {
			if r == col || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			for j := range mat[r] {
				mat[r][j] ^= gfMul(f, mat[col][j])
			}
			gfMulSlice(rhs[r], rhs[col], f)
		}
	}
	return bytes.Join(rhs, nil)
}

// TestGeneratorPolynomial pins gfPoly: under 0x11d (x^8+x^4+x^3+x^2+1)
// the element 2 generates all 255 non-zero elements; under AES's 0x11b
// its order is only 51.
func TestGeneratorPolynomial(t *testing.T) {
	if got := gfMulTable[2][0x80]; got != 0x1d {
		t.Fatalf("2·0x80 = %#x, want 0x1d (x^8 reduced by 0x11d)", got)
	}
	seen := make(map[byte]bool)
	for x := byte(1); !seen[x]; x = gfMulTable[2][x] {
		seen[x] = true
	}
	if len(seen) != 255 || seen[0] {
		t.Fatalf("2 generates %d elements, want all 255 non-zero ones", len(seen))
	}
}

// TestProductTableMatchesLogExp checks every entry of the product and
// inverse tables against the log/exp arithmetic.
func TestProductTableMatchesLogExp(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMulTable[a][b], gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("table %d·%d = %d, log/exp says %d", a, b, got, want)
			}
		}
		if a > 0 && gfInvTable[a] != gfInv(byte(a)) {
			t.Fatalf("table 1/%d = %d, log/exp says %d", a, gfInvTable[a], gfInv(byte(a)))
		}
	}
}

// oracleLens covers every payload length 0…130 (so lengths not
// divisible by 8 or by k), a few that span several kernel blocks, and,
// for a code with k data shards, blobs whose shards sit at and either
// side of the AVX2 body's 32-byte block edges (31/32/33, 63/64/65 and
// 4096±1 bytes), each once full and once with a padded last shard.
func oracleLens(k int) []int {
	lens := []int{257, 1000, 4099, 70001}
	for n := 0; n <= 130; n++ {
		lens = append(lens, n)
	}
	for _, size := range []int{31, 32, 33, 63, 64, 65, 4095, 4096, 4097} {
		lens = append(lens, k*size, k*size-1)
	}
	return lens
}

// bodies calls f once per kernel body this machine runs, with useAVX2
// set to select it: "avx2" where the CPU has it, then "table". Codes
// and kernels must be built inside f, since a kernel's body is fixed
// when it is compiled.
func bodies(f func(body string)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	if useAVX2 {
		f("avx2")
	}
	useAVX2 = false
	f("table")
}

// oddShards copies shards into one buffer, each at an odd offset, so no
// shard's base is 32-byte aligned. nil entries stay nil.
func oddShards(shards [][]byte) [][]byte {
	size := 0
	for _, sh := range shards {
		if sh != nil {
			size = len(sh)
		}
	}
	stride := size + 2 + size%2 // even, so every offset 1 + i*stride is odd
	buf := make([]byte, 1+len(shards)*stride)
	out := make([][]byte, len(shards))
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		off := 1 + i*stride
		out[i] = buf[off : off+size : off+size]
		copy(out[i], sh)
	}
	return out
}

// TestEncodeMatchesReference: Split, and Encode into dirty caller
// buffers, are byte-identical to the accumulate loop over a (k, m) grid
// that includes m = 1, m > 8 (several packed row groups) and k+m = 256,
// under each kernel body. Encode's shards are unaligned.
func TestEncodeMatchesReference(t *testing.T) {
	bodies(func(body string) {
		t.Run(body, testEncodeMatchesReference)
	})
}

func testEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, km := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {3, 5}, {7, 8}, {5, 9}, {2, 17}, {255, 1}, {1, 255}, {200, 56}, {128, 128}} {
		c, err := New(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range oracleLens(c.k) {
			if c.N() > 64 && n > 1000 {
				continue // wide codes: the reference is slow and the blocks are covered above
			}
			data := make([]byte, n)
			rng.Read(data)
			want := refSplit(c, data)
			got := c.Split(data)
			parity := make([][]byte, c.m)
			for i := range parity {
				parity[i] = bytes.Repeat([]byte{0xCC}, c.ShardSize(n))
			}
			parity = oddShards(parity)
			if err := c.Encode(oddShards(want[:c.k]), parity); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("(%d,%d) len=%d: Split shard %d differs from the reference", c.k, c.m, n, i)
				}
				if i >= c.k && !bytes.Equal(parity[i-c.k], want[i]) {
					t.Fatalf("(%d,%d) len=%d: Encode parity %d differs from the reference", c.k, c.m, n, i-c.k)
				}
			}
		}
	}
}

// TestEncodeValidation: wrong shard counts and ragged lengths are errors.
func TestEncodeValidation(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := func(n int) []byte { return make([]byte, n) }
	for name, args := range map[string][2][][]byte{
		"too few data":  {{sh(4)}, {sh(4)}},
		"extra parity":  {{sh(4), sh(4)}, {sh(4), sh(4)}},
		"ragged data":   {{sh(4), sh(3)}, {sh(4)}},
		"ragged parity": {{sh(4), sh(4)}, {sh(5)}},
	} {
		if err := c.Encode(args[0], args[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReconstructMatchesReference: for every pattern of at most m
// erasures the inverted-matrix Reconstruct returns exactly what
// payload-wide elimination returns, which is the padded original, under
// each kernel body and from unaligned survivors.
func TestReconstructMatchesReference(t *testing.T) {
	bodies(func(body string) {
		t.Run(body, testReconstructMatchesReference)
	})
}

func testReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, km := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 2}, {4, 2}, {4, 3}, {5, 4}, {2, 9}} {
		c, err := New(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		k := c.k
		for _, n := range []int{0, 1, 13, 130, 1031, 31 * k, 32*k - 1, 33 * k, 64 * k, 65*k - 1, 4097 * k} {
			data := make([]byte, n)
			rng.Read(data)
			shards := c.Split(data)
			padded := append(append([]byte(nil), data...), make([]byte, c.k*c.ShardSize(n)-n)...)
			for lose := 0; lose <= c.m; lose++ {
				subsets(c.N(), lose, func(erased []int) {
					damaged := append([][]byte(nil), shards...)
					for _, e := range erased {
						damaged[e] = nil
					}
					damaged = oddShards(damaged)
					name := fmt.Sprintf("(%d,%d) len=%d erased=%v", c.k, c.m, n, erased)
					got, err := c.Reconstruct(damaged)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := refReconstruct(c, damaged); !bytes.Equal(got, want) {
						t.Fatalf("%s: differs from the reference elimination", name)
					}
					if !bytes.Equal(got, padded) {
						t.Fatalf("%s: not the padded original", name)
					}
				})
			}
		}
	}
}

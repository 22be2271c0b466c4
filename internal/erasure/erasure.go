// Package erasure implements a systematic k-of-n Reed–Solomon-style
// erasure code over GF(256): Split encodes a blob into k data shards
// plus m parity shards, and Reconstruct recovers the blob from any k of
// the n = k+m shards.
//
// The parity matrix is a Cauchy matrix, so the stacked generator
// [I_k; C] has the maximum-distance-separable property: every k×k
// submatrix is invertible, hence any k surviving shards suffice. The
// field arithmetic uses the reduction polynomial x^8+x^4+x^3+x^2+1
// (0x11d, under which 2 generates the multiplicative group; AES's
// x^8+x^4+x^3+x+1 is 0x11b) through a 64 KiB product table built at
// init.
//
// Shard payloads go through one kernel, which takes output rows two at
// a time and reads every input byte once per pair, so with up to two
// parity shards (or two lost data shards) each input byte is read once.
// Encode runs it over the parity rows, Reconstruct over the rows of the
// inverted decode matrix that belong to missing data shards. The kernel
// has two bodies:
//
//   - the table body (every platform): per-column 256-entry tables whose
//     16-bit entries pack a byte's products for both rows, one lookup
//     per input byte;
//   - the AVX2 body (amd64): split-nibble tables, lo[x] = c·x and
//     hi[x] = c·(x<<4) for x < 16, so c·b = lo[b&15] ^ hi[b>>4] and one
//     VPSHUFB does 32 lookups. It covers whole 32-byte blocks; the last
//     n%32 bytes go through the table body.
//
// The body is chosen once, at init, from CPUID (AVX2, with the OS saving
// YMM state); there is no knob. Both bodies compute the same products
// in the same field and XOR them, which is associative and commutative,
// so their bytes cannot differ: the oracle tests run each against the
// log/exp reference in oracle_test.go.
//
// Everything here is a pure function of its inputs — no clocks, no
// randomness, no global state beyond the constant tables — so encoded
// fragments and reconstructions are byte-reproducible, which the
// checkpoint layer's determinism guarantee relies on.
package erasure

import "fmt"

// gfPoly is the field's reduction polynomial x^8+x^4+x^3+x^2+1.
const gfPoly = 0x11d

// gfMulTable[a][b] is the product a·b and gfInvTable[a] the inverse of
// a (0 for a = 0): the only field arithmetic non-test code uses. Row a
// is built by doubling — a·2b = 2·(a·b), reduced by gfPoly — so the
// tables owe nothing to the log/exp multiply the tests check them
// against.
var (
	gfMulTable [256][256]byte
	gfInvTable [256]byte
)

func init() {
	for a := 1; a < 256; a++ {
		row := &gfMulTable[a]
		row[1] = byte(a)
		for b := 2; b < 256; b++ {
			d := int(row[b/2]) << 1
			if d >= 256 {
				d ^= gfPoly
			}
			if b&1 == 1 {
				d ^= a
			}
			row[b] = byte(d)
			if d == 1 {
				gfInvTable[a] = byte(b)
			}
		}
	}
	gfInvTable[1] = 1
}

// kernel is a coefficient matrix compiled for bulk multiplication. Rows
// are taken two at a time and columns four at a time: entry [c][x] of
// quad[r/2*quads+j/4], c = j%4, packs the products of x with column j of
// rows r and r+1 (low and high byte), so one lookup per input byte
// serves both rows. A quad is 2 KiB and is all a pass over the payload
// touches besides the payload itself. Columns past the last and the row
// past the last of an odd matrix are zero coefficients.
//
// When the AVX2 body is in use, nib[r/2*cols+j] holds column j's
// split-nibble tables for rows r and r+1 (the same zero padding), and
// the vector body covers the whole 32-byte blocks before the quads take
// the tail.
type kernel struct {
	rows, cols, quads int
	quad              [][4][256]uint16
	nib               []nibbles
}

// nibbles is one column's split-nibble tables for a pair of rows: lo
// and hi of row r, then lo and hi of row r+1.
type nibbles [4][16]byte

// newKernel compiles coef, a rows×cols matrix given row by row.
func newKernel(coef [][]byte, cols int) *kernel {
	kn := &kernel{rows: len(coef), cols: cols, quads: (cols + 3) / 4}
	kn.quad = make([][4][256]uint16, (kn.rows+1)/2*kn.quads)
	if useAVX2 {
		kn.nib = make([]nibbles, (kn.rows+1)/2*cols)
	}
	for r, row := range coef {
		shift := 8 * uint(r%2)
		for j, c := range row {
			t := &kn.quad[r/2*kn.quads+j/4][j%4]
			mul := &gfMulTable[c]
			for x := range t {
				t[x] |= uint16(mul[x]) << shift
			}
			if kn.nib != nil {
				nb := &kn.nib[r/2*cols+j]
				for x := range 16 {
					nb[2*(r%2)][x] = mul[x]
					nb[2*(r%2)+1][x] = mul[x<<4]
				}
			}
		}
	}
	return kn
}

// apply overwrites out[r] with Σ_j coef[r][j]·in[j] for every row. in
// holds cols slices and out rows slices, all of one length.
func (kn *kernel) apply(in, out [][]byte) {
	last := kn.cols - 1
	n := len(out[0])
	for r := 0; r < kn.rows; r += 2 {
		d0 := out[r]
		d1 := d0 // no row r+1: the high bytes are zero and both bodies write d0 last
		if r+1 < kn.rows {
			d1 = out[r+1]
		}
		done := 0
		if kn.nib != nil && n >= 32 {
			done = n &^ 31
			mulPairAVX2(kn.nib[r/2*kn.cols:(r/2+1)*kn.cols], in, d0[:done], d1[:done])
		}
		// The table body takes what the vector body left: everything, or
		// the last n%32 bytes.
		d0, d1 = d0[done:], d1[done:]
		for q := 0; q < kn.quads; q++ {
			t := &kn.quad[r/2*kn.quads+q]
			// A padding column reads the last input against a zero table.
			s0, s1, s2, s3 := in[4*q][done:], in[min(4*q+1, last)][done:], in[min(4*q+2, last)][done:], in[min(4*q+3, last)][done:]
			if q == 0 {
				setPair(t, s0, s1, s2, s3, d0, d1)
			} else {
				xorPair(t, s0, s1, s2, s3, d0, d1)
			}
		}
	}
}

// setPair assigns the low bytes of one quad's products to d0 and the
// high bytes to d1.
func setPair(t *[4][256]uint16, s0, s1, s2, s3, d0, d1 []byte) {
	n := len(d0)
	s0, s1, s2, s3, d1 = s0[:n], s1[:n], s2[:n], s3[:n], d1[:n]
	for i := 0; i < n; i++ {
		v := t[0][s0[i]] ^ t[1][s1[i]] ^ t[2][s2[i]] ^ t[3][s3[i]]
		d1[i] = byte(v >> 8)
		d0[i] = byte(v)
	}
}

// xorPair accumulates where setPair assigns (clearing the outputs and
// always accumulating costs the 4+2 kernel a third of its speed).
func xorPair(t *[4][256]uint16, s0, s1, s2, s3, d0, d1 []byte) {
	n := len(d0)
	s0, s1, s2, s3, d1 = s0[:n], s1[:n], s2[:n], s3[:n], d1[:n]
	for i := 0; i < n; i++ {
		v := t[0][s0[i]] ^ t[1][s1[i]] ^ t[2][s2[i]] ^ t[3][s3[i]]
		d1[i] ^= byte(v >> 8)
		d0[i] ^= byte(v)
	}
}

// Code is a systematic (k, m) erasure code: k data shards, m parity
// shards, tolerant of any m erasures. A Code is immutable and safe for
// concurrent use.
type Code struct {
	k, m int
	// parity[i][j] is the coefficient of data shard j in parity shard i:
	// row k+i of the generator matrix. It is the Cauchy matrix
	// 1/(x_i ⊕ y_j) with x_i = k+i and y_j = j.
	parity [][]byte
	// encode is parity compiled for Encode.
	encode *kernel
}

// New builds a (k, m) code. k and m must each be at least 1 and the
// total shard count k+m at most 256 (the Cauchy construction needs
// k+m distinct field elements).
func New(k, m int) (*Code, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("erasure: need k >= 1 data and m >= 1 parity shards (got %d+%d)", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("erasure: k+m = %d exceeds the GF(256) limit of 256 shards", k+m)
	}
	c := &Code{k: k, m: m, parity: make([][]byte, m)}
	for i := range c.parity {
		row := make([]byte, k)
		for j := range row {
			row[j] = gfInvTable[byte(k+i)^byte(j)]
		}
		c.parity[i] = row
	}
	c.encode = newKernel(c.parity, k)
	return c, nil
}

// K reports the data-shard count.
func (c *Code) K() int { return c.k }

// M reports the parity-shard count.
func (c *Code) M() int { return c.m }

// N reports the total shard count k+m.
func (c *Code) N() int { return c.k + c.m }

// ShardSize reports the per-shard byte count for a blob of dataLen
// bytes: ceil(dataLen/k).
func (c *Code) ShardSize(dataLen int) int {
	return (dataLen + c.k - 1) / c.k
}

// Encode computes the m parity shards of the k data shards into the
// caller's buffers: parity[i] is overwritten with parity shard i. All
// k+m slices must share one length; data is only read.
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.k || len(parity) != c.m {
		return fmt.Errorf("erasure: encode got %d data and %d parity shards, want %d+%d", len(data), len(parity), c.k, c.m)
	}
	size := len(data[0])
	for _, set := range [2][][]byte{data, parity} {
		for _, sh := range set {
			if len(sh) != size {
				return fmt.Errorf("erasure: shard sizes differ (%d vs %d)", len(sh), size)
			}
		}
	}
	c.encode.apply(data, parity)
	return nil
}

// Split encodes data into k+m shards of ShardSize(len(data)) bytes
// each. Shards 0..k-1 are the data itself (the last one zero-padded);
// shards k..k+m-1 are parity. The input is not aliased: the shards are
// cut from one fresh allocation, each capped at its own length.
// Reconstruct returns the padded k*ShardSize image, so callers must
// record len(data) to trim it.
func (c *Code) Split(data []byte) [][]byte {
	size := c.ShardSize(len(data))
	buf := make([]byte, c.N()*size)
	copy(buf, data)
	shards := make([][]byte, c.N())
	for i := range shards {
		shards[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	c.encode.apply(shards[:c.k], shards[c.k:])
	return shards
}

// Reconstruct recovers the padded data image (k * shardSize bytes) from
// any k of the n shards. shards must have length n; a nil entry marks
// an erased shard, and present entries must share one length. Fewer
// than k surviving shards is an error.
func (c *Code) Reconstruct(shards [][]byte) ([]byte, error) {
	if len(shards) != c.N() {
		return nil, fmt.Errorf("erasure: got %d shard slots, want %d", len(shards), c.N())
	}
	size := -1
	avail := 0
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if size == -1 {
			size = len(sh)
		} else if len(sh) != size {
			return nil, fmt.Errorf("erasure: shard sizes differ (%d vs %d)", len(sh), size)
		}
		avail++
	}
	if avail < c.k {
		return nil, fmt.Errorf("erasure: only %d of %d shards survive, need %d", avail, c.N(), c.k)
	}

	// Surviving data shards are the image already; only the missing ones
	// need arithmetic.
	out := make([]byte, c.k*size)
	var missing []int
	for j := 0; j < c.k; j++ {
		if shards[j] == nil {
			missing = append(missing, j)
		} else {
			copy(out[j*size:], shards[j])
		}
	}
	if len(missing) == 0 {
		return out, nil
	}

	// The first k surviving shards (data rows preferred by index order)
	// span a k×k submatrix of the generator; row j of its inverse
	// expresses data shard j in terms of those survivors.
	mat := make([][]byte, 0, c.k)
	in := make([][]byte, 0, c.k)
	for i := 0; i < c.N() && len(in) < c.k; i++ {
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
		in = append(in, shards[i])
	}
	inv, err := invert(mat)
	if err != nil {
		return nil, err
	}
	coef := make([][]byte, len(missing))
	lost := make([][]byte, len(missing))
	for r, j := range missing {
		coef[r] = inv[j]
		lost[r] = out[j*size : (j+1)*size]
	}
	newKernel(coef, c.k).apply(in, lost)
	return out, nil
}

// invert returns the inverse of the square matrix a by Gauss–Jordan
// elimination over GF(256); a is destroyed.
func invert(a [][]byte) ([][]byte, error) {
	n := len(a)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			// Unreachable for a Cauchy-extended generator; guarded so a
			// future matrix change fails loudly instead of corrupting.
			return nil, fmt.Errorf("erasure: singular decode matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		scale := &gfMulTable[gfInvTable[a[col][col]]]
		for j := 0; j < n; j++ {
			a[col][j] = scale[a[col][j]]
			inv[col][j] = scale[inv[col][j]]
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := &gfMulTable[a[r][col]]
			for j := 0; j < n; j++ {
				a[r][j] ^= f[a[col][j]]
				inv[r][j] ^= f[inv[col][j]]
			}
		}
	}
	return inv, nil
}

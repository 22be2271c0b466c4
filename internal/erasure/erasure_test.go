package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestNewValidation checks the parameter ranges.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		k, m int
		ok   bool
	}{
		{1, 1, true}, {4, 2, true}, {255, 1, true}, {1, 255, true},
		{0, 1, false}, {1, 0, false}, {-1, 2, false}, {200, 100, false},
	} {
		_, err := New(tc.k, tc.m)
		if (err == nil) != tc.ok {
			t.Errorf("New(%d, %d): err = %v, want ok=%v", tc.k, tc.m, err, tc.ok)
		}
	}
}

// subsets calls f with every way of erasing `lose` shards out of n.
func subsets(n, lose int, f func(erased []int)) {
	idx := make([]int, lose)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == lose {
			f(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
}

// TestRoundTripAllErasurePatterns is the MDS property: for a grid of
// (k, m) and data lengths, every pattern of at most m erasures
// reconstructs the original data exactly.
func TestRoundTripAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, km := range [][2]int{{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {4, 3}, {5, 4}} {
		k, m := km[0], km[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, dataLen := range []int{0, 1, k - 1, k, k + 1, 7 * k, 257} {
			if dataLen < 0 {
				continue
			}
			data := make([]byte, dataLen)
			rng.Read(data)
			shards := c.Split(data)
			if len(shards) != k+m {
				t.Fatalf("(%d,%d): Split returned %d shards", k, m, len(shards))
			}
			for lose := 0; lose <= m; lose++ {
				subsets(k+m, lose, func(erased []int) {
					damaged := make([][]byte, len(shards))
					for i, sh := range shards {
						damaged[i] = sh
					}
					for _, e := range erased {
						damaged[e] = nil
					}
					img, err := c.Reconstruct(damaged)
					if err != nil {
						t.Fatalf("(%d,%d) len=%d erased=%v: %v", k, m, dataLen, erased, err)
					}
					if want := k * c.ShardSize(dataLen); len(img) != want {
						t.Fatalf("(%d,%d) len=%d: image %d bytes, want %d", k, m, dataLen, len(img), want)
					}
					if !bytes.Equal(img[:dataLen], data) {
						t.Fatalf("(%d,%d) len=%d erased=%v: data corrupted", k, m, dataLen, erased)
					}
				})
			}
		}
	}
}

// TestTooFewShards checks that k-1 survivors fail loudly.
func TestTooFewShards(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Split([]byte("some checkpoint payload"))
	for i := 0; i < 3; i++ {
		shards[i] = nil
	}
	if _, err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruction from 3 of 6 shards with k=4 should fail")
	}
}

// TestReconstructValidation covers malformed shard sets.
func TestReconstructValidation(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconstruct([][]byte{{1}, {2}}); err == nil {
		t.Error("wrong shard-slot count accepted")
	}
	if _, err := c.Reconstruct([][]byte{{1}, {2, 3}, nil}); err == nil {
		t.Error("mismatched shard sizes accepted")
	}
}

// TestDeterministicEncoding: Split is a pure function — two calls over
// the same data produce identical shards.
func TestDeterministicEncoding(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5, 0x17, 0x00, 0xFF}, 100)
	a, b := c.Split(data), c.Split(data)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("shard %d differs between encodings", i)
		}
	}
}

// TestSplitDoesNotAliasInput: mutating the input after Split must not
// change the shards (the checkpoint layer stores them as stable data).
func TestSplitDoesNotAliasInput(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4}
	shards := c.Split(data)
	data[0] = 0xFF
	if shards[0][0] != 1 {
		t.Fatal("shard aliases the input slice")
	}
}

func BenchmarkSplit4x2_512K(b *testing.B) {
	c, _ := New(4, 2)
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(2)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		c.Split(data)
	}
}

// BenchmarkEncode4x2_512K is the kernel alone, without Split's
// allocation and copy: Encode of a 512 KiB blob's four data shards into
// two caller parity buffers, once per kernel body.
func BenchmarkEncode4x2_512K(b *testing.B) {
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(2)).Read(data)
	bodies(func(body string) {
		b.Run(body, func(b *testing.B) {
			c, _ := New(4, 2)
			shards := c.Split(data)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := c.Encode(shards[:4], shards[4:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkReconstruct4x2_512K_TwoDataLost(b *testing.B) {
	c, _ := New(4, 2)
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(3)).Read(data)
	shards := c.Split(data)
	shards[0], shards[2] = nil, nil
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

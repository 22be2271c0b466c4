package checkpoint

// The state codec against gob itself: what BorrowState and EncodeState
// write through a type's primed encoders must be, byte for byte, what a
// gob encoder of its own writes; and the buffer BorrowState lends, given
// back when the runtime gives it back, must never show in a store.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hydee/internal/vtime"
)

// haloState is the shape of a stencil or churn rank's state: a counter, a
// step and an image.
type haloState struct {
	Acc  uint64
	Iter int
	Img  []byte
}

type leaf struct {
	A int
	B string
	C []float64
}

// nestedState reaches structs by value, by pointer and through slices,
// arrays and maps; the unexported and func fields gob does not send.
type nestedState struct {
	In     leaf
	P      *leaf
	List   []leaf
	Ptrs   []*leaf
	Arr    [3]int16
	Grid   [2][2]leaf
	M      map[string]leaf
	MP     map[int]*leaf
	hidden any
	Fn     func()
}

// timedState reaches a GobEncoder.
type timedState struct {
	At     time.Time
	D      time.Duration
	Stamps []time.Time
}

// anyState and errState reach interfaces: gob describes an interface
// value's concrete type when it first meets it, so they take the fallback.
type anyState struct {
	N int
	V any
	L []map[string]any
}

type errState struct {
	N   int
	Err error
}

func init() { gob.Register(leaf{}) }

// stateShapes draws one value of every shape the codec must match gob on,
// zero values included. Every map holds at most one entry: gob writes a
// map in Go's randomised iteration order, so only such a value has a
// single encoding to compare bytes against.
func stateShapes(rng *rand.Rand) []any {
	img := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	l := leaf{A: rng.Intn(100), B: fmt.Sprint(rng.Intn(100)), C: []float64{rng.Float64()}}
	at := time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9)).UTC()
	return []any{
		&haloState{}, haloState{},
		&haloState{Acc: rng.Uint64(), Iter: rng.Intn(64), Img: nil},
		&haloState{Acc: rng.Uint64(), Iter: rng.Intn(64), Img: []byte{}},
		&haloState{Acc: rng.Uint64(), Iter: rng.Intn(64), Img: img(512 << 10)},
		&haloState{Acc: rng.Uint64(), Img: img(rng.Intn(4096))},
		haloState{Iter: 1, Img: img(rng.Intn(64))},
		&nestedState{},
		&nestedState{
			In: l, P: &l, List: []leaf{l, {}}, Ptrs: []*leaf{&l},
			Arr: [3]int16{1, -2, 3}, Grid: [2][2]leaf{{l}, {{}, l}},
			M: map[string]leaf{"k": l}, MP: map[int]*leaf{rng.Intn(9): &l},
			hidden: 1, Fn: func() {},
		},
		&timedState{}, &timedState{At: at, D: time.Duration(rng.Int63()), Stamps: []time.Time{at, {}}},
		time.Time{}, at,
		[]byte{}, img(rng.Intn(100)), rng.Int(), "s", map[string]int{"one": 1}, []leaf{l}, [2]leaf{l},
		&anyState{}, &anyState{N: 1, V: rng.Intn(9)}, &anyState{V: l, L: []map[string]any{{"x": "y"}}},
		&errState{}, errState{N: 2},
	}
}

// freshGob is v as a gob encoder of its own writes it.
func freshGob(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Errorf("fresh encoder: %T: %v", v, err)
	}
	return buf.Bytes()
}

// TestEncodeStateIsGob holds BorrowState and EncodeState to a fresh gob
// encoder over every shape, from four goroutines sharing the codecs'
// pools, and checks that the codec primes the struct states that reach no
// interface and none that reaches one. Run it under -race.
func TestEncodeStateIsGob(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 8; round++ {
				for _, v := range stateShapes(rng) {
					want := freshGob(t, v)
					b, release, err := BorrowState(v)
					if err != nil {
						t.Errorf("BorrowState(%T): %v", v, err)
						return
					}
					if !bytes.Equal(b, want) {
						t.Errorf("BorrowState(%T) differs from a fresh encoder's:\n got %.200x\nwant %.200x", v, b, want)
					}
					release()
					if b, err := EncodeState(v); err != nil || !bytes.Equal(b, want) {
						t.Errorf("EncodeState(%T) differs from a fresh encoder's (err %v)", v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range []struct {
		v    any
		want bool
	}{
		{&haloState{}, true}, {haloState{}, true}, {&nestedState{}, true}, {&timedState{}, true},
		{&anyState{}, false}, {&errState{}, false}, {errState{}, false},
	} {
		if primed := codecFor(reflect.TypeOf(c.v)).prefixLen > 0; primed != c.want {
			t.Errorf("%T: primed %v, want %v", c.v, primed, c.want)
		}
	}
}

// TestEncodeStateErrors: what gob refuses, the codec refuses too, and a
// failed encode leaves the type's codec working.
func TestEncodeStateErrors(t *testing.T) {
	for _, v := range []any{nil, struct{ x int }{}, &errState{Err: errors.New("unregistered")}} {
		if _, err := EncodeState(v); err == nil {
			t.Errorf("EncodeState(%T) succeeded, gob refuses it", v)
		}
	}
	v := &errState{N: 3}
	if b, err := EncodeState(v); err != nil || !bytes.Equal(b, freshGob(t, v)) {
		t.Fatalf("after a refused encode: %x (%v), want a fresh encoder's", b, err)
	}
}

// releasedState is TestReleasedBufferReachesNoStore's own state type: the
// test scribbles over buffers it has given back, which would damage the
// pool of any type another test encodes.
type releasedState struct {
	Iter int
	Img  []byte
}

// nonStaging hides a store's staging: only Store's methods show, so
// Stage falls back to Save under the turn.
type nonStaging struct{ Store }

// TestReleasedBufferReachesNoStore drives every kind of store the way the
// runtime does: the snapshot's AppState is borrowed from the codec, and
// given back — then scribbled over, as the next capture overwrites it —
// right after Stage when the stage reports it detached, else after
// Commit. Every stored snapshot and fragment must stay what was saved.
func TestReleasedBufferReachesNoStore(t *testing.T) {
	for _, be := range []struct {
		name     string
		detached bool
		// inMem: storeState can read every fragment the store holds.
		inMem bool
		mk    func() (Store, error)
	}{
		{"mem", true, true, func() (Store, error) { return NewMemStore(0, 0), nil }},
		{"ec:4+2", true, true, func() (Store, error) { return NewECStore(4, 2, 0, 0, nil) }},
		{"replica:3", true, true, func() (Store, error) { return NewReplicatedStore(3, 0, 0, nil) }},
		{"sharded:4", true, true, func() (Store, error) { return NewShardedStore(4, 0, 0, nil), nil }},
		{"file", false, false, func() (Store, error) { return NewFileStore(t.TempDir(), 0, 0) }},
		{"faulty(file)", false, false, func() (Store, error) {
			fs, err := NewFileStore(t.TempDir(), 0, 0)
			if err != nil {
				return nil, err
			}
			return NewFaultyStore(fs)
		}},
		{"non-staging(mem)", false, false, func() (Store, error) { return nonStaging{NewMemStore(0, 0)}, nil }},
	} {
		t.Run(be.name, func(t *testing.T) {
			st, err := be.mk()
			if err != nil {
				t.Fatal(err)
			}
			twin, err := be.mk()
			if err != nil {
				t.Fatal(err)
			}
			const ranks, seqs = 4, 5
			rng := rand.New(rand.NewSource(3))
			want := map[[2]int][]byte{}
			for seq := 1; seq <= seqs; seq++ {
				for r := 0; r < ranks; r++ {
					img := make([]byte, rng.Intn(8<<10))
					rng.Read(img)
					b, release, err := BorrowState(&releasedState{Iter: seq, Img: img})
					if err != nil {
						t.Fatal(err)
					}
					s := &Snapshot{Rank: r, Seq: seq, TakenVT: vtime.Time(seq), AppState: b, ProtState: []byte("prot")}
					want[[2]int{r, seq}] = canonical(t, s)
					at := vtime.Time(10*seq + r)
					if _, err := twin.Save(s, at); err != nil {
						t.Fatal(err)
					}
					p, err := Stage(st, s)
					if err != nil {
						t.Fatal(err)
					}
					if p.Detached() != be.detached {
						t.Fatalf("Detached() = %v, want %v", p.Detached(), be.detached)
					}
					giveBack := func() {
						release()
						for i := range b {
							b[i] ^= 0x5A
						}
					}
					if p.Detached() {
						giveBack()
					}
					if _, err := p.Commit(at); err != nil {
						t.Fatal(err)
					}
					if !p.Detached() {
						giveBack()
					}
				}
			}
			if be.inMem {
				if a, b := storeState(t, twin), storeState(t, st); a != b {
					t.Errorf("the store differs from one fed snapshots nobody scribbled over:\nwant:\n%s\ngot:\n%s", a, b)
				}
			}
			for key, w := range want {
				if key[1] <= seqs-historyKeep {
					continue
				}
				got, _, ok := st.Load(key[0], key[1], 100)
				if !ok || !bytes.Equal(canonical(t, got), w) {
					t.Errorf("rank %d seq %d: stored snapshot differs from the one saved (ok=%v)", key[0], key[1], ok)
				}
			}
		})
	}
}

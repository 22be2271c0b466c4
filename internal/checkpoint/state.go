package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// The gob codec of checkpointed values: the application state in AppState
// and a protocol engine's state in ProtState. Each is exactly what
// gob.NewEncoder(w).Encode(v) writes, so a fresh decoder reads it: the
// descriptors of every type v reaches, then the value. The descriptors
// depend on v's type alone, and an encoder that has sent them writes the
// value alone. So each type's codec keeps a pool of primed encoders, each
// writing into a buffer it reuses that starts with the descriptors, and an
// encode copies the value twice (gob's buffer, then that one) into memory
// an earlier encode has already faulted in.
//
// gob describes an interface value's concrete type when it first meets it,
// so the descriptors of a type that reaches an interface depend on the
// values sent: such a type takes a fresh encoder every time.

// stateCodec is the codec of one type. zero primes its encoders: the zero
// value, or a pointer to one, since gob refuses a nil pointer. prefixLen
// is the length of its descriptors, 0 for a type that takes fresh
// encoders.
type stateCodec struct {
	typ       reflect.Type
	zero      reflect.Value
	prefixLen int
	encoders  sync.Pool // of *primedEncoder
}

// primedEncoder is a gob encoder that has sent its codec's descriptors,
// and buf, which it writes to and whose first prefixLen bytes they are.
type primedEncoder struct {
	c   *stateCodec
	buf bytes.Buffer
	enc *gob.Encoder
}

var codecs sync.Map // reflect.Type → *stateCodec

// codecFor returns the codec of t, building it on first use.
func codecFor(t reflect.Type) *stateCodec {
	if c, ok := codecs.Load(t); ok {
		return c.(*stateCodec)
	}
	c := &stateCodec{typ: t}
	if t != nil && !reachesInterface(t, map[reflect.Type]bool{}) {
		c.zero = reflect.Zero(t)
		if t.Kind() == reflect.Pointer {
			c.zero = reflect.New(t.Elem())
		}
		// A fresh encoder writes descriptors and value, a primed one the
		// value alone.
		if e := c.newEncoder(); e != nil {
			withTypes := e.buf.Len()
			if e.enc.EncodeValue(c.zero) == nil {
				c.prefixLen = 2*withTypes - e.buf.Len()
				e.release()
			}
		}
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*stateCodec)
}

// reachesInterface reports whether a value of t can hold an interface
// value gob would send. gob sends neither unexported fields nor chans and
// funcs, which this does not descend into.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && reachesInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// newEncoder returns a fresh encoder that has encoded the zero value once,
// its buffer holding the descriptors and that value; nil if gob refuses
// the type.
func (c *stateCodec) newEncoder() *primedEncoder {
	e := &primedEncoder{c: c}
	e.enc = gob.NewEncoder(&e.buf)
	if e.enc.EncodeValue(c.zero) != nil {
		return nil
	}
	return e
}

// release cuts the buffer back to the descriptors and returns the encoder
// to its pool.
func (e *primedEncoder) release() {
	e.buf.Truncate(e.c.prefixLen)
	e.c.encoders.Put(e)
}

// BorrowState gob-encodes v (an application state, a protocol state)
// into a buffer of the codec of v's type — the bytes
// gob.NewEncoder(w).Encode(v) writes to w — and returns the encoding
// with the function that gives the buffer back. release must be called exactly once, and the
// encoding not used after it.
func BorrowState(v any) (b []byte, release func(), err error) {
	c := codecFor(reflect.TypeOf(v))
	if c.prefixLen == 0 {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: encode state: %w", err)
		}
		return buf.Bytes(), func() {}, nil
	}
	e, _ := c.encoders.Get().(*primedEncoder)
	if e == nil {
		if e = c.newEncoder(); e == nil {
			return nil, nil, fmt.Errorf("checkpoint: encode state: gob refused %v", c.typ)
		}
		e.buf.Truncate(c.prefixLen)
	}
	if err := e.enc.Encode(v); err != nil {
		// An encoder that failed mid-value is not returned to the pool.
		return nil, nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	return e.buf.Bytes(), e.release, nil
}

// DecodeState gob-decodes into the application state pointer.
func DecodeState(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("checkpoint: decode state: %w", err)
	}
	return nil
}

package idtab

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap holds a Table to a map under random ids: every id
// finds the record it was given, records keep their addresses and their
// order of addition, and ids never added find nothing.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, span := range []int32{8, 300, 1 << 20} {
		var tab Table[int]
		want := map[int32]int{}
		var order []int32
		ptrs := map[int32]*int{}
		for i := 0; i < 2000; i++ {
			id := rng.Int31n(span) - span/4
			v := tab.Get(id)
			if p, ok := ptrs[id]; ok && p != v {
				t.Fatalf("record of %d moved", id)
			}
			if _, ok := want[id]; !ok {
				order = append(order, id)
				ptrs[id] = v
			}
			*v += i
			want[id] += i
		}
		if tab.Len() != len(want) {
			t.Fatalf("span %d: %d records, want %d", span, tab.Len(), len(want))
		}
		for i, id := range order {
			if got, v := tab.At(i); got != id || *v != want[id] {
				t.Fatalf("span %d: record %d is (%d, %d), want (%d, %d)", span, i, got, *v, id, want[id])
			}
			if v := tab.Find(id); v == nil || *v != want[id] {
				t.Fatalf("span %d: Find(%d) = %v", span, id, v)
			}
		}
		if tab.Find(span) != nil {
			t.Fatalf("span %d: found an id never added", span)
		}
	}
	var empty Table[int]
	if empty.Find(0) != nil || empty.Len() != 0 {
		t.Fatal("zero table not empty")
	}
}

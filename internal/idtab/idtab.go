// Package idtab keeps one record per peer id: the channels into a
// transport endpoint, a protocol engine's inter-cluster peers. Finding or
// adding a record makes no map operation and moves no record, and memory
// stays proportional to the records held, not to the id range.
package idtab

import "math/bits"

// Table maps int32 ids to records of type V, found through an
// open-addressed hash table of record numbers at most three quarters full.
// Records live in segments, in the order they were added, so a pointer to
// one stays valid for the table's life: the first four segments hold 1, 2,
// 4 and 8 records, every later one pageLen, so a large table wastes at
// most a page. The zero Table is empty.
type Table[V any] struct {
	segs  [][]entry[V]
	n     int
	slots []int32 // 1 + a record number; 0 is free
	shift uint    // 32 - log2(len(slots))
}

type entry[V any] struct {
	id int32
	v  V
}

const pageLen = 16

// Len reports the number of records.
func (t *Table[V]) Len() int { return t.n }

// At returns the id and the record of the i-th record added.
func (t *Table[V]) At(i int) (int32, *V) {
	e := t.at(i)
	return e.id, &e.v
}

// at finds record i in segment k < 4 at i+1-2^k, after that in segment
// 3+(i+1)/pageLen at (i+1)%pageLen.
func (t *Table[V]) at(i int) *entry[V] {
	j := i + 1
	if j < pageLen {
		k := bits.Len(uint(j)) - 1
		return &t.segs[k][j-1<<k]
	}
	return &t.segs[3+j/pageLen][j%pageLen]
}

// Find returns id's record, or nil if it has none.
func (t *Table[V]) Find(id int32) *V {
	_, v := t.lookup(id)
	return v
}

// Get returns id's record, adding a zero one if it has none.
func (t *Table[V]) Get(id int32) *V {
	slot, v := t.lookup(id)
	if v != nil {
		return v
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.rehash(max(8, 2*len(t.slots)))
		slot, _ = t.lookup(id)
	}
	if j := t.n + 1; j&(j-1) == 0 || j%pageLen == 0 { // at starts a segment
		t.segs = append(t.segs, make([]entry[V], min(j, pageLen)))
	}
	e := t.at(t.n)
	e.id = id
	t.n++
	t.slots[slot] = int32(t.n)
	return &e.v
}

// lookup returns id's record, if any, and its slot: the one that holds it,
// else the free one it would take.
func (t *Table[V]) lookup(id int32) (int, *V) {
	if len(t.slots) == 0 {
		return 0, nil
	}
	mask := len(t.slots) - 1
	for h := int(uint32(id) * 0x9E3779B9 >> t.shift); ; h = (h + 1) & mask {
		s := t.slots[h]
		if s == 0 {
			return h, nil
		}
		if e := t.at(int(s) - 1); e.id == id {
			return h, &e.v
		}
	}
}

// rehash rebuilds the index with size slots, a power of two.
func (t *Table[V]) rehash(size int) {
	t.slots = make([]int32, size)
	t.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for i := range t.n {
		slot, _ := t.lookup(t.at(i).id)
		t.slots[slot] = int32(i + 1)
	}
}

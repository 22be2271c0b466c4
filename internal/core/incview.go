package core

import "slices"

// incView is a process's view of every rank's incarnation, the IncSeen it
// stamps on each application send. It costs O(peers heard ahead), not
// O(np): vec is the newest round's AllIncs, one immutable slice shared by
// every engine of the run (nil = no round yet, every incarnation 0), and
// ahead lists, sorted by rank, the ranks whose RollbackNote raised them
// above vec before their round's RoundStart arrived. Every entry of ahead
// is strictly above vec's, so a rank found there reads its entry.
//
// A newer round's vector dominates an older one entry by entry (DESIGN.md
// "Incarnation view"), so adopting the newest vector and dropping the
// entries it caught up with is the elementwise maximum of everything seen.
type incView struct {
	round int
	vec   []int32
	ahead []incNote
}

type incNote struct {
	rank, inc int32
}

// of reports the incarnation of rank r the process knows of. With no note
// ahead of the vector, the failure-free case, it is one slice index, and
// inlined (keep it within the inlining budget).
func (v *incView) of(r int) int32 {
	if len(v.ahead) != 0 {
		return v.aheadOf(r)
	}
	if r < len(v.vec) {
		return v.vec[r]
	}
	return 0
}

func (v *incView) aheadOf(r int) int32 {
	if i, ok := slices.BinarySearchFunc(v.ahead, r, cmpNote); ok {
		return v.ahead[i].inc
	}
	if r < len(v.vec) {
		return v.vec[r]
	}
	return 0
}

func cmpNote(n incNote, r int) int { return int(n.rank) - r }

// adopt takes round's AllIncs as the view's vector unless the view already
// holds a newer round's, and keeps only the notes still ahead of it.
// vec is shared and never written.
func (v *incView) adopt(round int, vec []int32) {
	if round < v.round {
		return
	}
	v.round, v.vec = round, vec
	kept := v.ahead[:0]
	for _, n := range v.ahead {
		if n.inc > vec[n.rank] {
			kept = append(kept, n)
		}
	}
	v.ahead = kept
}

// reset replaces the view with round's vector, whatever it held: a
// restored process starts from its restart round's incarnations.
func (v *incView) reset(round int, vec []int32) {
	v.round, v.vec, v.ahead = round, vec, v.ahead[:0]
}

// raise records that rank r restarted as incarnation inc.
func (v *incView) raise(r int, inc int32) {
	if inc <= v.of(r) {
		return
	}
	i, ok := slices.BinarySearchFunc(v.ahead, r, cmpNote)
	if ok {
		v.ahead[i].inc = inc
		return
	}
	v.ahead = slices.Insert(v.ahead, i, incNote{int32(r), inc})
}

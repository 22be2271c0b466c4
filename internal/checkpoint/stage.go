package checkpoint

import "hydee/internal/vtime"

// Two-phase saves. A save is two kinds of work: what does not depend on
// the virtual time it is issued at — the store's copy of the snapshot,
// its encoding, striping, parity and seals — and what does: fault
// admission, the per-target contention queues, the hand-off to the
// targets, pruning, spares and statistics. The runtime admits saves one
// at a time in virtual-time order (Endpoint.FlushAwaitTurn), so only the
// second kind has to run under that turn. Stage runs the first kind before it,
// on the saving rank's goroutine and in parallel with every other rank's;
// Commit runs the second under it. Every built-in store's Save is its own
// stage followed by its own commit, so the two paths cannot drift apart.

// stager is a store whose Save is stage + commit: MemStore, the three
// shard-set layouts, FaultyStore and its shard wrapper. Stage falls back
// to Save under the turn for any other store.
type stager interface {
	stage(s *Snapshot) (staged, error)
}

// staged is one stage's result; exactly one of commit or discard follows.
type staged interface {
	// commit admits the save issued at `at` and returns its completion
	// time, as Save would.
	commit(at vtime.Time) (vtime.Time, error)
	// discard drops the save: nothing observable changes, and buffers the
	// stage took from a spare list go back to it.
	discard()
	// detached reports that the stage references nothing of the snapshot
	// it was built from.
	detached() bool
}

// Staged is a save whose time-independent work is done and whose
// admission is not. Exactly one of Commit or Discard must follow.
type Staged struct{ p staged }

// Stage prepares the save of s to st. When it returns, the caller's
// snapshot — every buffer and message it points to — is free to mutate,
// reuse or recycle either at once or after Commit or Discard, and Detached
// says which. It is free at once for a store that copies what it keeps in
// Stage: MemStore, the sharded, ec and replica layouts over memory, and
// the fault plane over any of them. A file-backed store, and any store
// that cannot stage, writes s in Commit, so s stays referenced, and must
// stay untouched, until Commit or Discard has returned.
func Stage(st Store, s *Snapshot) (Staged, error) {
	p, err := stageOn(st, s)
	return Staged{p}, err
}

// Detached reports whether the staged save references nothing of the
// snapshot it was staged from, which is then the caller's again (see
// Stage).
func (s Staged) Detached() bool { return s.p.detached() }

// Commit admits the staged save issued at `at` and returns the virtual
// time the write completes — exactly what Save(s, at) returns, with the
// same effect on the store.
func (s Staged) Commit(at vtime.Time) (vtime.Time, error) { return s.p.commit(at) }

// Discard drops a staged save that will not be admitted; the store is
// left as if Stage had never run.
func (s Staged) Discard() { s.p.discard() }

// stageOn stages s for t, or defers to t.Save when t cannot stage.
func stageOn(t Store, s *Snapshot) (staged, error) {
	if st, ok := t.(stager); ok {
		return st.stage(s)
	}
	return saveLater{t, s}, nil
}

// save is the Save of every stager: its stage, then its commit.
func save(st stager, s *Snapshot, at vtime.Time) (vtime.Time, error) {
	p, err := st.stage(s)
	if err != nil {
		return at, err
	}
	return p.commit(at)
}

// saveLater is the stage of a store that cannot stage: nothing is done
// before the turn, and commit is the store's Save.
type saveLater struct {
	t Store
	s *Snapshot
}

func (p saveLater) commit(at vtime.Time) (vtime.Time, error) { return p.t.Save(p.s, at) }
func (saveLater) discard()                                   {}
func (saveLater) detached() bool                             { return false }

// keptCopy is a staged single-snapshot save handed to t under the turn:
// fs is the copy t keeps, taken before the turn (see fragmentTarget), or,
// with copied false, the caller's snapshot when t's inner store copies in
// its own Save. The spare the hand-off returns is dropped either way: a
// single-snapshot save has no spare list, and only fragment buffers are
// recycled.
type keptCopy struct {
	t      fragmentTarget
	fs     *Snapshot
	copied bool
}

func (p keptCopy) commit(at vtime.Time) (vtime.Time, error) {
	end, _, err := p.t.saveOwned(p.fs, at)
	return end, err
}

func (keptCopy) discard()         {}
func (p keptCopy) detached() bool { return p.copied }

package checkpoint

import "hydee/internal/vtime"

// Two-phase saves. A save is two kinds of work: what does not depend on
// the virtual time it is issued at — the store's copy of the snapshot,
// its encoding, striping, parity and seals — and what does: the shard
// set's write path with its fault admission, the per-target contention
// queues, pruning, spares and statistics. The runtime admits saves one at
// a time in virtual-time order (Endpoint.FlushAwaitTurn), so only the
// second kind has to run under that turn. Stage runs the first kind while
// the saving rank waits for it, on a goroutine of its own and in parallel
// with every other rank's; Commit runs the second under it. The Save of
// MemStore and of the three shard-set layouts is its own stage followed
// by its own commit, so the two paths cannot drift apart. FileStore has
// no stage: its Save encodes the snapshot into a fresh blob under the
// turn.

// stager is a store whose Save is stage + commit: MemStore and the three
// shard-set layouts, faulted or not. Stage falls back to Save under the
// turn for any other store.
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
// Stage: MemStore and the sharded, ec and replica layouts over memory,
// faulted or not. A file-backed store or shard, and any store that cannot
// stage, writes s in Commit, so s stays referenced, and must stay
// untouched, until Commit or Discard has returned.
func Stage(st Store, s *Snapshot) (Staged, error) {
	sg, ok := st.(stager)
	if !ok {
		return Staged{saveLater{st, s}}, nil
	}
	p, err := sg.stage(s)
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

// keptCopy is MemStore's staged save: fs is the copy st keeps, taken
// before the turn. The spare keep returns is dropped: a single-snapshot
// save has no spare list, and only fragment buffers are recycled.
type keptCopy struct {
	st *MemStore
	fs *Snapshot
}

func (p keptCopy) commit(at vtime.Time) (vtime.Time, error) {
	end, _ := p.st.keep(p.fs, at)
	return end, nil
}

func (keptCopy) discard()       {}
func (keptCopy) detached() bool { return true }

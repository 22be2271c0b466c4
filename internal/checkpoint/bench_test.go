package checkpoint

// Layer benchmarks of the checkpoint data path (`make bench-layers`): the
// fragment seal, a steady-state redundant save, the two halves of an ec
// save (the stage before the runtime's turn, the commit under it), and a
// degraded load, each over the 512 KiB image of the repository
// benchmark's ckpt-ec-churn64 workload.

import (
	"math/rand"
	"testing"

	"hydee/internal/vtime"
)

// benchSnap is a 512 KiB snapshot; the caller sets Rank and Seq.
func benchSnap() *Snapshot {
	img := make([]byte, 512<<10)
	rand.New(rand.NewSource(1)).Read(img)
	return &Snapshot{TakenVT: 1, AppState: img, ProtState: make([]byte, 256)}
}

// benchSaves times steady-state saves: eight ranks take turns, so every
// save prunes a generation whose buffers the next one reuses.
func benchSaves(b *testing.B, st Store) {
	s := benchSnap()
	i := 0
	save := func() {
		s.Rank, s.Seq = i%8, 1+i/8
		if _, err := st.Save(s, vtime.Time(i)); err != nil {
			b.Fatal(err)
		}
		i++
	}
	for i < 8*(historyKeep+1) {
		save() // fill the histories: the timed saves are all steady-state
	}
	b.SetBytes(int64(len(s.AppState) + len(s.ProtState)))
	b.ReportAllocs()
	for b.Loop() {
		save()
	}
}

func BenchmarkFragmentSeal128K(b *testing.B) {
	frag := make([]byte, fragmentLen(128<<10))
	rand.New(rand.NewSource(2)).Read(frag)
	putFragmentHeader(frag, 4, 2, 0, 512<<10)
	b.SetBytes(int64(len(frag)))
	b.ReportAllocs()
	for b.Loop() {
		sealFragment(frag)
	}
}

func BenchmarkECSave512K(b *testing.B) {
	st, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchSaves(b, st)
}

func BenchmarkReplicaSave512K(b *testing.B) {
	st, err := NewReplicatedStore(3, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchSaves(b, st)
}

// BenchmarkECStage512K is the part of an ec save the runtime runs before
// its virtual-time turn: striping, parity and seals. Each staged group is
// discarded, so the next builds in its buffers.
func BenchmarkECStage512K(b *testing.B) {
	st, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSnap()
	s.Seq = 1
	b.SetBytes(int64(len(s.AppState) + len(s.ProtState)))
	b.ReportAllocs()
	for b.Loop() {
		p, err := Stage(st, s)
		if err != nil {
			b.Fatal(err)
		}
		p.Discard()
	}
}

// BenchmarkECCommit512K is what stays under the turn of a steady-state ec
// save: the hand-off of six sealed fragments, pruning and the spare list.
// Staging each op (BenchmarkECStage512K) would cost a hundred commits, so
// one group is staged and committed again under each op's (rank, seq):
// the targets keep its buffers by reference, which makes every commit a
// real one. The buffers the prunes hand back are all that group's, so the
// spare list is emptied each op instead of being built in.
func BenchmarkECCommit512K(b *testing.B) {
	st, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSnap()
	s.Seq = 1
	p, err := Stage(st, s)
	if err != nil {
		b.Fatal(err)
	}
	g := *p.p.(*groupSave)
	i := 0
	commit := func() {
		g.rank, g.seq = i%8, 1+i/8
		i++
		if _, err := g.commit(vtime.Time(i)); err != nil {
			b.Fatal(err)
		}
		st.spare = st.spare[:0]
	}
	for i < 8*(historyKeep+1) {
		commit() // fill the histories, as benchSaves does
	}
	b.ReportAllocs() // no SetBytes: a commit moves references, not bytes
	for b.Loop() {
		commit()
	}
}

// BenchmarkECLoadDegraded512K loads around a killed data shard: five
// fragment reads, verification, and reconstruction of the lost stripe.
func BenchmarkECLoadDegraded512K(b *testing.B) {
	ec, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewFaultyStore(ec, ShardFault{Shard: 1, AtVT: 100, Kind: FaultKill})
	if err != nil {
		b.Fatal(err)
	}
	s := benchSnap()
	s.Seq = 1
	if _, err := st.Save(s, 10); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(s.AppState) + len(s.ProtState)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, ok := st.Load(0, 1, 200); !ok {
			b.Fatal("degraded load failed")
		}
	}
	if ec.DegradedLoads() == 0 {
		b.Fatal("the load was not degraded")
	}
}

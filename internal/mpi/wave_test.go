package mpi_test

// Checkpoint waves through a staged store: every rank builds its save
// (copy, encoding, parity, seals) before it waits for its turn, and only
// admits it under the turn. Staging runs in whatever real-time order the
// ranks reach it, so these tests hold the staged runtime to the save-
// under-the-turn path — the one any store that cannot stage still takes —
// byte for byte, at several GOMAXPROCS.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// underTurn hides a store's staging: the embedded interface carries only
// Store's methods, so checkpoint.Stage falls back to Save under the turn.
type underTurn struct{ checkpoint.Store }

// waveState is the ring program's checkpointed image.
type waveState struct {
	Iter int
	Acc  uint64
	Img  []byte
}

// ringWave is a ring exchange that checkpoints every step: each rank
// sends its accumulator right, folds in what arrives from the left, flips
// one byte of its image, and calls Checkpoint. imgs[rank] is the initial
// image; the program works on a copy.
func ringWave(iters int, imgs [][]byte) mpi.Program {
	return func(c *mpi.Comm) error {
		r, np := c.Rank(), c.Size()
		st := &waveState{Acc: uint64(r) + 1}
		restored, err := c.Restore(st)
		if err != nil {
			return err
		}
		if !restored {
			st.Img = append([]byte(nil), imgs[r]...)
		}
		out := make([]byte, 8)
		for st.Iter < iters {
			binary.LittleEndian.PutUint64(out, st.Acc)
			if err := c.SendW((r+1)%np, 7, out, 1<<10); err != nil {
				return err
			}
			in, _, err := c.Recv((r-1+np)%np, 7)
			if err != nil {
				return err
			}
			st.Acc = st.Acc*0x9e3779b97f4a7c15 + binary.LittleEndian.Uint64(in)
			st.Img[st.Iter*4099%len(st.Img)] ^= byte(st.Acc)
			if err := c.Compute(5 * vtime.Microsecond); err != nil {
				return err
			}
			st.Iter++
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
		h := fnv.New64a()
		h.Write(st.Img)
		c.SetResult(st.Acc ^ h.Sum64())
		return nil
	}
}

// waveImages draws np seeded images of n bytes.
func waveImages(np, n int) [][]byte {
	rng := rand.New(rand.NewSource(int64(np)<<20 | int64(n)))
	imgs := make([][]byte, np)
	for r := range imgs {
		imgs[r] = make([]byte, n)
		rng.Read(imgs[r])
	}
	return imgs
}

// waveConfig is the ckpt-ec-churn64 shape: HydEE on contiguous clusters
// of eight, Myrinet, a checkpoint every step.
func waveConfig(np int) mpi.Config {
	assign := make([]int, np)
	for r := range assign {
		assign[r] = r / 8
	}
	return mpi.Config{
		NP:              np,
		Topo:            rollback.NewTopology(assign),
		Protocol:        core.New(),
		Model:           netmodel.Myrinet10G(),
		CheckpointEvery: 1,
	}
}

// ecUnderFaults is a free ec:4+2 store with its faults, and the handles
// its observables are read through.
type ecUnderFaults struct {
	ec     *checkpoint.ECStore
	faulty checkpoint.FaultyStore
}

func newECUnderFaults(t testing.TB, faults ...checkpoint.ShardFault) ecUnderFaults {
	t.Helper()
	ec, err := checkpoint.NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := checkpoint.NewFaultyStore(ec, faults...)
	if err != nil {
		t.Fatal(err)
	}
	return ecUnderFaults{ec, faulty}
}

// observables renders everything the store exposes after a run: stats,
// per-shard stats, degraded loads, fault stats, and then — loads count,
// so last — the digest, completion time
// and availability of every (rank, seq) up to maxSeq. A snapshot is
// digested with its protocol state reduced to its length: the HydEE
// engine gob-encodes maps into it, and gob writes a map in Go's
// randomised iteration order, so one protocol state has many encodings,
// all of one length, from run to run. Its content is the engine's,
// checked by internal/core's own tests; staging never reads it.
func (s ecUnderFaults) observables(np, maxSeq int) string {
	out := fmt.Sprintf("stats %+v\nshards %+v\ndegraded %d\nfaults %+v\n",
		s.ec.Stats(), s.ec.ShardStats(), s.ec.DegradedLoads(), s.faulty.FaultStats())
	for r := 0; r < np; r++ {
		out += fmt.Sprintf("rank %d:", r)
		for seq := 1; seq <= maxSeq; seq++ {
			snap, end, ok := s.faulty.Load(r, seq, 1<<40)
			if !ok {
				out += " -"
				continue
			}
			snap.ProtState = fmt.Appendf(nil, "%d bytes", len(snap.ProtState))
			b, err := checkpoint.EncodeSnapshot(snap)
			if err != nil {
				return err.Error()
			}
			out += fmt.Sprintf(" %x@%d", sha256.Sum256(b), end)
		}
		out += "\n"
	}
	return out
}

// TestStagedCheckpointWaveReproducible runs an np = 64 ring that
// checkpoints every step into ec:4+2, with one shard killed mid-run and
// one rank failure, three ways: staged at GOMAXPROCS 1, staged at
// GOMAXPROCS 4, and with staging hidden (every save under the turn). The
// Result (bar the plane's host counters) and every store observable must
// be identical.
func TestStagedCheckpointWaveReproducible(t *testing.T) {
	const np, iters = 64, 8
	imgs := waveImages(np, 4<<10)
	run := func(procs int, hide bool) (*mpi.Result, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		st := newECUnderFaults(t, checkpoint.ShardFault{Shard: 3, AtVT: vtime.Time(40 * vtime.Microsecond), Kind: checkpoint.FaultKill})
		cfg := waveConfig(np)
		cfg.Store = st.faulty
		if hide {
			cfg.Store = underTurn{st.faulty}
		}
		cfg.Failures = []failure.Event{{Ranks: []int{29}, When: failure.Trigger{AfterCheckpoints: iters / 2}}}
		res, err := mpi.Run(cfg, ringWave(iters, imgs))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return virtualOnly(res), st.observables(np, iters)
	}
	ref, refStore := run(1, false)
	if len(ref.Rounds) != 1 || ref.Rounds[0].RolledBack != 8 {
		t.Fatalf("rounds %+v, want one round rolling back rank 29's cluster of 8", ref.Rounds)
	}
	if ref.StoreStats.Loads != 8 {
		t.Fatalf("%d loads, want the cluster's 8 restores", ref.StoreStats.Loads)
	}
	for _, c := range []struct {
		name  string
		procs int
		hide  bool
	}{{"staged/GOMAXPROCS=4", 4, false}, {"under-turn/GOMAXPROCS=4", 4, true}} {
		res, store := run(c.procs, c.hide)
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("%s: result differs from staged at GOMAXPROCS=1:\n  %+v\n  %+v", c.name, res, ref)
		}
		if store != refStore {
			t.Errorf("%s: store differs from staged at GOMAXPROCS=1:\n%s\nvs\n%s", c.name, store, refStore)
		}
	}
}

// BenchmarkCheckpointWave is ckpt-ec-churn64's checkpoint wave without its
// failure: np = 64 ranks on a ring, 512 KiB images, a checkpoint every
// step into a free ec:4+2 store, four steps per run. staged is the
// runtime's path; under-turn hides the store's staging, so every save is
// built while its turn is held, as any store that cannot stage is.
// markers-1024 is the marker flush at stencil1024-onefail's scale: np =
// 1024 in 32-rank clusters, 64-byte images into the default free store,
// two checkpoints, per flush marker.
func BenchmarkCheckpointWave(b *testing.B) {
	const np, iters = 64, 4
	imgs := waveImages(np, 512<<10)
	for _, hide := range []bool{false, true} {
		name := "staged"
		if hide {
			name = "under-turn"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				st := newECUnderFaults(b)
				cfg := waveConfig(np)
				cfg.Store = st.faulty
				if hide {
					cfg.Store = underTurn{st.faulty}
				}
				if _, err := mpi.Run(cfg, ringWave(iters, imgs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*np*iters), "ns/save")
		})
	}
	b.Run("markers-1024", func(b *testing.B) {
		const np, size, ckpts = 1024, 32, 2
		imgs := waveImages(np, 64)
		cfg := waveConfig(np)
		assign := make([]int, np)
		for r := range assign {
			assign[r] = r / size
		}
		cfg.Topo = rollback.NewTopology(assign)
		for b.Loop() {
			if _, err := mpi.Run(cfg, ringWave(ckpts, imgs)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*np*(size-1)*ckpts), "ns/marker")
	})
}

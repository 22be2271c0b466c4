package checkpoint

// Unit tests of the redundancy backends: erasure-coded and replicated
// stores surviving shard loss and corruption up to their redundancy, the
// shard faults' kill/corrupt/degrade semantics, and the
// modeled-cost accounting E6 compares.

import (
	"bytes"
	"reflect"
	"testing"

	"hydee/internal/vtime"
)

// TestECStoreRoundTrip: a snapshot saved through the EC store loads back
// identically with all shards healthy.
func TestECStoreRoundTrip(t *testing.T) {
	st, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := codecSnap(3, 1)
	if _, err := st.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	got, _, ok := st.Load(3, 1, 20)
	if !ok {
		t.Fatal("load failed with all shards healthy")
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("snapshot changed through the EC store:\n  in  %+v\n  out %+v", s, got)
	}
	if st.DegradedLoads() != 0 {
		t.Errorf("healthy load counted as degraded")
	}
}

// TestECStoreSurvivesShardLoss: with k=4, m=2, loads survive any loss of
// up to 2 shards (degraded-counted) and fail with 3 shards gone.
func TestECStoreSurvivesShardLoss(t *testing.T) {
	mk := func(kill ...int) (*ECStore, Store) {
		t.Helper()
		ec, err := NewECStore(4, 2, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		faults := make([]ShardFault, len(kill))
		for i, sh := range kill {
			faults[i] = ShardFault{Shard: sh, AtVT: 500, Kind: FaultKill}
		}
		fs, err := NewFaultyStore(ec, faults...)
		if err != nil {
			t.Fatal(err)
		}
		return ec, fs
	}
	s := codecSnap(0, 1)
	for _, tc := range []struct {
		kill []int
		// degraded is 0 when the killed shards sit past the probe
		// window (parity never needed), 1 when the load had to route
		// around a loss.
		degraded int64
	}{
		{[]int{0}, 1}, {[]int{5}, 0}, {[]int{0, 1}, 1}, {[]int{2, 4}, 1},
	} {
		ec, fs := mk(tc.kill...)
		if _, err := fs.Save(s, 10); err != nil { // healthy: before the fault VT
			t.Fatal(err)
		}
		got, _, ok := fs.Load(0, 1, 1000) // after the fault VT
		if !ok {
			t.Fatalf("kill %v: load failed, want degraded success", tc.kill)
		}
		if !bytes.Equal(got.AppState, s.AppState) {
			t.Fatalf("kill %v: reconstructed snapshot corrupted", tc.kill)
		}
		if ec.DegradedLoads() != tc.degraded {
			t.Errorf("kill %v: DegradedLoads = %d, want %d", tc.kill, ec.DegradedLoads(), tc.degraded)
		}
	}
	_, fs := mk(0, 1, 2)
	if _, err := fs.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fs.Load(0, 1, 1000); ok {
		t.Fatal("load survived 3 lost shards with m=2")
	}
}

// TestECStoreDetectsCorruption: a corrupting shard is detected by the
// fragment checksum and routed around like a lost shard.
func TestECStoreDetectsCorruption(t *testing.T) {
	ec, err := NewECStore(2, 1, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFaultyStore(ec, ShardFault{Shard: 0, AtVT: 500, Kind: FaultCorrupt})
	if err != nil {
		t.Fatal(err)
	}
	s := codecSnap(0, 1)
	if _, err := fs.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	got, _, ok := fs.Load(0, 1, 1000)
	if !ok {
		t.Fatal("load failed, want checksum-detected failover")
	}
	if !bytes.Equal(got.AppState, s.AppState) {
		t.Fatal("corrupted fragment leaked into the reconstruction")
	}
	if ec.DegradedLoads() != 1 {
		t.Errorf("DegradedLoads = %d, want 1", ec.DegradedLoads())
	}
}

// TestECStoreCostModel: physical traffic reflects the (k+m)/k overhead
// while logical counters count snapshots.
func TestECStoreCostModel(t *testing.T) {
	ec, err := NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{Rank: 0, Seq: 1, ModelBytes: 4000}
	if _, err := ec.Save(s, 0); err != nil {
		t.Fatal(err)
	}
	st := ec.Stats()
	if st.Saves != 1 || st.Loads != 0 {
		t.Errorf("logical counters: %+v", st)
	}
	want := int64(6 * (1000 + fragmentEnvelope)) // 6 fragments of cost/k + envelope
	if st.SavedBytes != want {
		t.Errorf("SavedBytes = %d, want %d", st.SavedBytes, want)
	}
	shardStats := ec.ShardStats()
	if len(shardStats) != 6 {
		t.Fatalf("ShardStats length %d", len(shardStats))
	}
	for i, ss := range shardStats {
		if ss.Saves != 1 {
			t.Errorf("shard %d got %d fragment writes, want 1", i, ss.Saves)
		}
	}
}

// TestECStoreBandwidthContention: fragment writes charge their shards'
// bandwidth; a second rank in the same placement group queues behind the
// first.
func TestECStoreBandwidthContention(t *testing.T) {
	// One placement group: both ranks share base shard 0.
	ec, err := NewECStore(2, 1, 1e9, 1e9, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	s1 := &Snapshot{Rank: 0, Seq: 1, ModelBytes: 100e6}
	s2 := &Snapshot{Rank: 1, Seq: 1, ModelBytes: 100e6}
	end1, err := ec.Save(s1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end1 <= 0 {
		t.Fatal("bandwidth model not charged")
	}
	end2, err := ec.Save(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= end1 {
		t.Errorf("second save (%v) did not queue behind the first (%v)", end2, end1)
	}
}

// TestReplicatedStoreFailover: reads fail over from a dead home replica
// and survive anything short of losing all replicas.
func TestReplicatedStoreFailover(t *testing.T) {
	rep, err := NewReplicatedStore(3, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's home replica is 0; kill it and its first fallback.
	fs, err := NewFaultyStore(rep,
		ShardFault{Shard: 0, AtVT: 500, Kind: FaultKill},
		ShardFault{Shard: 1, AtVT: 500, Kind: FaultCorrupt},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := codecSnap(0, 1)
	if _, err := fs.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	got, _, ok := fs.Load(0, 1, 1000)
	if !ok {
		t.Fatal("load failed with one healthy replica left")
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("snapshot changed through replica failover")
	}
	if rep.DegradedLoads() != 2 {
		t.Errorf("DegradedLoads = %d, want 2 skipped replicas", rep.DegradedLoads())
	}
}

// TestReplicatedStoreAllReplicasLost: losing all r replicas is a lost
// checkpoint.
func TestReplicatedStoreAllReplicasLost(t *testing.T) {
	rep, err := NewReplicatedStore(2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFaultyStore(rep,
		ShardFault{Shard: 0, AtVT: 500, Kind: FaultKill},
		ShardFault{Shard: 1, AtVT: 500, Kind: FaultKill},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Save(codecSnap(0, 1), 10); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fs.Load(0, 1, 1000); ok {
		t.Fatal("load survived the loss of every replica")
	}
}

// TestReplicatedStoreCostModel: r full copies show up in the physical
// volume.
func TestReplicatedStoreCostModel(t *testing.T) {
	rep, err := NewReplicatedStore(3, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{Rank: 1, Seq: 1, ModelBytes: 5000}
	if _, err := rep.Save(s, 0); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.Saves != 1 {
		t.Errorf("logical Saves = %d, want 1", st.Saves)
	}
	if want := int64(3 * (5000 + fragmentEnvelope)); st.SavedBytes != want {
		t.Errorf("SavedBytes = %d, want %d", st.SavedBytes, want)
	}
}

// TestReplicatedValidation: r < 2 is rejected.
func TestReplicatedValidation(t *testing.T) {
	if _, err := NewReplicatedStore(1, 0, 0, nil); err == nil {
		t.Error("r=1 accepted")
	}
}

// TestFaultyStoreValidation: out-of-range shards, non-positive fault
// times and bad degrade factors are construction errors.
func TestFaultyStoreValidation(t *testing.T) {
	sharded := NewShardedStore(4, 0, 0, nil)
	cases := []ShardFault{
		{Shard: 4, AtVT: 10, Kind: FaultKill},
		{Shard: -1, AtVT: 10, Kind: FaultKill},
		{Shard: 0, AtVT: 0, Kind: FaultKill},
		{Shard: 0, AtVT: 10, Kind: FaultDegrade, Factor: 1},
		{Shard: 0, AtVT: 10, Kind: FaultKind(99)},
	}
	for _, f := range cases {
		if _, err := NewFaultyStore(sharded, f); err == nil {
			t.Errorf("fault %+v accepted", f)
		}
	}
	// A plain store is one shard: index 1 is out of range.
	if _, err := NewFaultyStore(NewMemStore(0, 0), ShardFault{Shard: 1, AtVT: 10, Kind: FaultKill}); err == nil {
		t.Error("shard 1 of a non-composite store accepted")
	}
}

// TestFaultyStoreKillIsAnOrderedEvent: operations issued before the
// fault's virtual time are healthy, operations at or after it see the
// dead shard — a pure function of issue time, like a rank kill.
func TestFaultyStoreKillIsAnOrderedEvent(t *testing.T) {
	fs, err := NewFaultyStore(NewMemStore(0, 0), ShardFault{Shard: 0, AtVT: 100, Kind: FaultKill})
	if err != nil {
		t.Fatal(err)
	}
	s := codecSnap(0, 1)
	if _, err := fs.Save(s, 50); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fs.Load(0, 1, 99); !ok {
		t.Fatal("pre-fault load refused")
	}
	if _, _, ok := fs.Load(0, 1, 100); ok {
		t.Fatal("load at the fault time served from a dead shard")
	}
	// Writes at or after the kill are dropped, not errored: the dropped
	// sequence is unloadable even through the healthy pre-fault window.
	if _, err := fs.Save(&Snapshot{Rank: 0, Seq: 2}, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fs.Load(0, 2, 99); ok {
		t.Fatal("dropped write became loadable")
	}
	stats := fs.FaultStats()
	if stats[0].LostWrites != 1 || stats[0].LostReads != 1 {
		t.Errorf("fault stats %+v, want 1 lost write / 1 lost read", stats[0])
	}
}

// TestFaultyStoreDegrade: a degraded shard charges Factor× the write
// cost and stretches reads.
func TestFaultyStoreDegrade(t *testing.T) {
	mk := func(faults ...ShardFault) Store {
		t.Helper()
		fs, err := NewFaultyStore(NewMemStore(1e6, 1e6), faults...)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	s := &Snapshot{Rank: 0, Seq: 1, ModelBytes: 1e6}
	healthy := mk()
	degradedWrites := mk(ShardFault{Shard: 0, AtVT: 1, Kind: FaultDegrade, Factor: 2})
	hEnd, err := healthy.Save(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	dEnd, err := degradedWrites.Save(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := vtime.Time(10).Add(2 * hEnd.Sub(10)); dEnd != want {
		t.Errorf("degraded save end %v, want %v (healthy %v)", dEnd, want, hEnd)
	}
	// The read stretch, measured on a snapshot written while the shard
	// was still healthy (the E6 scenario: faults activate at recovery).
	degradedReads := mk(ShardFault{Shard: 0, AtVT: 1e8, Kind: FaultDegrade, Factor: 2})
	if _, err := degradedReads.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	_, hREnd, _ := healthy.Load(0, 1, 1e9)
	_, dREnd, _ := degradedReads.Load(0, 1, 1e9)
	if dREnd.Sub(1e9) != 2*hREnd.Sub(1e9) {
		t.Errorf("degraded read took %v, want 2× healthy %v", dREnd.Sub(1e9), hREnd.Sub(1e9))
	}
}

// TestFaultyStoreCorruptUndetectedOnPlainBackend documents the
// failure-semantics table's sharp edge: a plain store has no checksums,
// so a corrupt read returns damaged state as if it were fine.
func TestFaultyStoreCorruptUndetectedOnPlainBackend(t *testing.T) {
	fs, err := NewFaultyStore(NewMemStore(0, 0), ShardFault{Shard: 0, AtVT: 100, Kind: FaultCorrupt})
	if err != nil {
		t.Fatal(err)
	}
	s := codecSnap(0, 1)
	if _, err := fs.Save(s, 10); err != nil {
		t.Fatal(err)
	}
	got, _, ok := fs.Load(0, 1, 200)
	if !ok {
		t.Fatal("corrupt read refused; FaultCorrupt degrades data, not availability")
	}
	if bytes.Equal(got.AppState, s.AppState) {
		t.Fatal("corruption did not damage the returned snapshot")
	}
	if fs.FaultStats()[0].CorruptReads != 1 {
		t.Errorf("CorruptReads = %d, want 1", fs.FaultStats()[0].CorruptReads)
	}
}

// TestLayoutContract pins, under a non-zero bandwidth model, every
// number the three shard-set layouts produce in each row of the
// DESIGN.md failure-semantics table: completion times, availability,
// degraded-load counts, and the logical and per-target statistics.
// Write bandwidth 1 byte/ns and read bandwidth 2 bytes/ns keep every
// expected time an integer. Ranks 0 and 3 each save a 4000-byte
// snapshot at VT 10 (the second queues behind the first on every target
// they share), faults activate at VT 5000, and rank 0 loads at VT 10000.
// A MemStore given faults is the one shard of a sharded layout. In the
// "late" scenario each layout carries one fault of every kind, activating
// after the load, and must read exactly like its bare twin.
func TestLayoutContract(t *testing.T) {
	type target struct {
		saves, bytes, loads int64
		queue               vtime.Duration
	}
	same := func(n int, tg target) []target {
		out := make([]target, n)
		for i := range out {
			out[i] = tg
		}
		return out
	}
	// loadsOn returns base with the Loads of the listed targets set to 1.
	loadsOn := func(base []target, hit ...int) []target {
		out := append([]target(nil), base...)
		for _, i := range hit {
			out[i].loads = 1
		}
		return out
	}
	kill := func(shards ...int) []ShardFault {
		var fs []ShardFault
		for _, sh := range shards {
			fs = append(fs, ShardFault{Shard: sh, AtVT: 5000, Kind: FaultKill})
		}
		return fs
	}
	corrupt0 := []ShardFault{{Shard: 0, AtVT: 5000, Kind: FaultCorrupt}}

	type scenario struct {
		name     string
		faults   []ShardFault
		ok       bool
		intact   bool // a successful load returned the saved image undamaged
		loadEnd  vtime.Time
		degraded int64
		loads    int64 // logical Stats().Loads
		targets  []target
	}
	mem := []target{{2, 8000, 0, 4000}}
	sharded := append(mem, same(2, target{})...)
	ec := same(6, target{2, 2128, 0, 1064})
	replica := same(3, target{2, 8128, 0, 4064})
	layouts := []struct {
		name             string
		mk               func() (Store, error)
		saveEnd          [2]vtime.Time
		savedBytes       int64
		maxQueue         vtime.Duration
		healthy, killed  scenario
		corrupt, exhaust scenario
	}{
		{
			name:    "mem",
			mk:      func() (Store, error) { return NewMemStore(1e9, 2e9), nil },
			saveEnd: [2]vtime.Time{4010, 8010}, savedBytes: 8000, maxQueue: 4000,
			healthy: scenario{ok: true, intact: true, loadEnd: 12000, loads: 1, targets: loadsOn(mem, 0)},
			killed:  scenario{faults: kill(0), loadEnd: 10000, targets: mem},
			corrupt: scenario{faults: corrupt0, ok: true, loadEnd: 12000, loads: 1, targets: loadsOn(mem, 0)},
			exhaust: scenario{faults: kill(0), loadEnd: 10000, targets: mem},
		},
		{
			name:    "sharded:3",
			mk:      func() (Store, error) { return NewShardedStore(3, 1e9, 2e9, nil), nil },
			saveEnd: [2]vtime.Time{4010, 8010}, savedBytes: 8000, maxQueue: 4000,
			healthy: scenario{ok: true, intact: true, loadEnd: 12000, loads: 1, targets: loadsOn(sharded, 0)},
			killed:  scenario{faults: kill(0), loadEnd: 10000, targets: sharded},
			// No checksums: the damaged image comes back as if healthy.
			corrupt: scenario{faults: corrupt0, ok: true, loadEnd: 12000, loads: 1, targets: loadsOn(sharded, 0)},
			exhaust: scenario{faults: kill(0), loadEnd: 10000, targets: sharded},
		},
		{
			name:    "ec:4+2",
			mk:      func() (Store, error) { return NewECStore(4, 2, 1e9, 2e9, nil) },
			saveEnd: [2]vtime.Time{1074, 2138}, savedBytes: 12768, maxQueue: 1064,
			healthy: scenario{ok: true, intact: true, loadEnd: 10532, loads: 1, targets: loadsOn(ec, 0, 1, 2, 3)},
			killed:  scenario{faults: kill(0), ok: true, intact: true, loadEnd: 10532, degraded: 1, loads: 1, targets: loadsOn(ec, 1, 2, 3, 4)},
			// Probes are parallel: the corrupt fragment's read overlaps
			// the healthy ones, so the load costs one read duration.
			corrupt: scenario{faults: corrupt0, ok: true, intact: true, loadEnd: 10532, degraded: 1, loads: 1, targets: loadsOn(ec, 0, 1, 2, 3, 4)},
			exhaust: scenario{faults: kill(0, 1, 2), loadEnd: 10000, targets: loadsOn(ec, 3, 4, 5)},
		},
		{
			name:    "replica:3",
			mk:      func() (Store, error) { return NewReplicatedStore(3, 1e9, 2e9, nil) },
			saveEnd: [2]vtime.Time{4074, 8138}, savedBytes: 24384, maxQueue: 4064,
			healthy: scenario{ok: true, intact: true, loadEnd: 12032, loads: 1, targets: loadsOn(replica, 0)},
			// A dead replica refuses instantly; the fallback pays one read.
			killed: scenario{faults: kill(0), ok: true, intact: true, loadEnd: 12032, degraded: 1, loads: 1, targets: loadsOn(replica, 1)},
			// Probes are sequential: the corrupt home replica's full read
			// is paid before the fallback's, two read durations in all.
			corrupt: scenario{faults: corrupt0, ok: true, intact: true, loadEnd: 14064, degraded: 1, loads: 1, targets: loadsOn(replica, 0, 1)},
			exhaust: scenario{faults: kill(0, 1, 2), loadEnd: 10000, targets: replica},
		},
	}
	late := []ShardFault{
		{Shard: 0, AtVT: 20000, Kind: FaultKill},
		{Shard: 0, AtVT: 20000, Kind: FaultCorrupt},
		{Shard: 0, AtVT: 20000, Kind: FaultDegrade, Factor: 3},
	}
	// drive saves ranks 0 and 3 at VT 10 and loads rank 0 at VT 10000.
	drive := func(t *testing.T, st Store) (ends [2]vtime.Time, got *Snapshot, end vtime.Time, ok bool) {
		t.Helper()
		for i, rank := range []int{0, 3} {
			s := codecSnap(rank, 1)
			s.ModelBytes = 4000
			e, err := st.Save(s, 10)
			if err != nil {
				t.Fatal(err)
			}
			ends[i] = e
		}
		got, end, ok = st.Load(0, 1, 10000)
		return ends, got, end, ok
	}
	for _, l := range layouts {
		l.healthy.name, l.killed.name, l.corrupt.name, l.exhaust.name = "healthy", "killed", "corrupt", "exhausted"
		lateSc := l.healthy
		lateSc.name, lateSc.faults = "late", late
		for _, sc := range []scenario{l.healthy, l.killed, l.corrupt, l.exhaust, lateSc} {
			t.Run(l.name+"/"+sc.name, func(t *testing.T) {
				inner, err := l.mk()
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewFaultyStore(inner, sc.faults...)
				if err != nil {
					t.Fatal(err)
				}
				saved := codecSnap(0, 1)
				saved.ModelBytes = 4000
				ends, got, end, ok := drive(t, st)
				for i, rank := range []int{0, 3} {
					if ends[i] != l.saveEnd[i] {
						t.Errorf("rank %d save completes at %d, want %d", rank, ends[i], l.saveEnd[i])
					}
				}
				if ok != sc.ok || end != sc.loadEnd {
					t.Errorf("load: ok=%v end=%d, want ok=%v end=%d", ok, end, sc.ok, sc.loadEnd)
				}
				if ok && reflect.DeepEqual(got, saved) != sc.intact {
					t.Errorf("loaded image intact=%v, want %v", !sc.intact, sc.intact)
				}
				if sc.name == "late" {
					bare, err := l.mk()
					if err != nil {
						t.Fatal(err)
					}
					bEnds, bGot, bEnd, bOK := drive(t, bare)
					if bEnds != ends || bEnd != end || bOK != ok || !reflect.DeepEqual(bGot, got) || bare.Stats() != st.Stats() {
						t.Errorf("late faults changed what the store reads: saves %v load (%v, %v) %+v, bare saves %v load (%v, %v) %+v",
							ends, ok, end, st.Stats(), bEnds, bOK, bEnd, bare.Stats())
					}
				}
				var degraded int64
				if dc, ok := inner.(interface{ DegradedLoads() int64 }); ok {
					degraded = dc.DegradedLoads()
				}
				if degraded != sc.degraded {
					t.Errorf("DegradedLoads = %d, want %d", degraded, sc.degraded)
				}
				want := StoreStats{Saves: 2, SavedBytes: l.savedBytes, Loads: sc.loads, MaxQueue: l.maxQueue}
				if stats := st.Stats(); stats != want {
					t.Errorf("Stats = %+v, want %+v", stats, want)
				}
				per := st.(interface{ ShardStats() []StoreStats }).ShardStats()
				if len(per) != len(sc.targets) {
					t.Fatalf("ShardStats has %d targets, want %d", len(per), len(sc.targets))
				}
				for i, tg := range sc.targets {
					if want := (StoreStats{Saves: tg.saves, SavedBytes: tg.bytes, Loads: tg.loads, MaxQueue: tg.queue}); per[i] != want {
						t.Errorf("target %d stats = %+v, want %+v", i, per[i], want)
					}
				}
			})
		}
	}
}

// TestLayoutPlacementReduction: a placement value outside [0, n) —
// negative or >= n — routes exactly like its residue modulo n, on all
// three layouts and across Save and Load.
func TestLayoutPlacementReduction(t *testing.T) {
	raw := []int{-7, -3, -1, 0, 2, 3, 5, 11}
	for name, mk := range map[string]func(place func(int) int) (Store, error){
		"sharded:3": func(p func(int) int) (Store, error) { return NewShardedStore(3, 0, 0, p), nil },
		"ec:2+1":    func(p func(int) int) (Store, error) { return NewECStore(2, 1, 0, 0, p) },
		"replica:3": func(p func(int) int) (Store, error) { return NewReplicatedStore(3, 0, 0, p) },
	} {
		const n = 3
		run := func(place func(int) int) []StoreStats {
			t.Helper()
			st, err := mk(place)
			if err != nil {
				t.Fatal(err)
			}
			for rank := range raw {
				if _, err := st.Save(codecSnap(rank, 2), 0); err != nil {
					t.Fatal(err)
				}
				if _, _, ok := st.Load(rank, 2, 0); !ok {
					t.Errorf("%s rank %d: Load not routed back to the save's target", name, rank)
				}
			}
			return st.(interface{ ShardStats() []StoreStats }).ShardStats()
		}
		got := run(func(rank int) int { return raw[rank] })
		want := run(func(rank int) int { return ((raw[rank] % n) + n) % n })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: raw placement routed differently from its residues:\n  raw     %+v\n  reduced %+v", name, got, want)
		}
	}
}

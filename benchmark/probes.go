package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"hydee"
	"hydee/internal/checkpoint"
	"hydee/internal/erasure"
	"hydee/internal/netmodel"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// Standalone probes: each drives one layer's public functions directly,
// with no rank goroutines, so its number belongs to that layer alone. They
// are the same on every workload and run once per traced pass.

// planeNP lists the plane sizes the mutation probe covers.
var planeNP = []int{16, 64, 256, 1024, 4096}

// probePlane measures the host cost of one delivery-plane mutation on a
// Network of np endpoints in the state a running simulation keeps it in:
// all but two endpoints have a goroutine parked in Recv behind a queued
// message the gate cannot pass yet, so every refresh recomputes np blocked
// bounds and re-checks np waiters. The measuring goroutine plays the two
// remaining ranks: per step each sends to the other, publishes its clock
// past the arrival, and receives — six mutations, each refreshing the plane
// once. Nothing is woken during the measurement, so the number is the
// plane's own work, without goroutine switches.
func probePlane(np int) (float64, error) {
	model := netmodel.Myrinet10G()
	n := transport.NewNetwork(np, model)
	const farFuture = vtime.Time(1) << 50
	var wg sync.WaitGroup
	for i := 2; i < np; i++ {
		if err := n.Send(&transport.Msg{Src: np, Dst: i, Kind: transport.App, WireLen: 8, SendVT: farFuture}); err != nil {
			return 0, err
		}
		ep := n.Endpoint(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = ep.Recv(0) // parked until the Kill below
		}()
	}
	defer func() {
		for i := 2; i < np; i++ {
			n.Kill(i)
		}
		wg.Wait()
	}()
	for !n.Quiescent(np - 2) {
		time.Sleep(time.Millisecond)
	}

	eps := [2]*transport.Endpoint{n.Endpoint(0), n.Endpoint(1)}
	step := model.Latency(256) + vtime.Microsecond
	payload := make([]byte, 8)
	var clock vtime.Time
	// Three windows, median: one hiccup of the host (this is a shared VM)
	// must not set the number the plane's share is estimated from.
	var windows []float64
	for w := 0; w < 3; w++ {
		steps := 0
		t0 := time.Now()
		for ; steps < 50 || time.Since(t0) < probeBudget; steps++ {
			clock = clock.Add(step)
			for i := 0; i < 2; i++ {
				if err := n.Send(&transport.Msg{Src: i, Dst: 1 - i, Kind: transport.App, Data: payload, WireLen: 256, SendVT: clock}); err != nil {
					return 0, err
				}
			}
			clock = clock.Add(step)
			for i := 0; i < 2; i++ {
				n.Publish(i, clock)
			}
			for i := 0; i < 2; i++ {
				if _, ok, err := eps[i].TryRecv(clock); err != nil || !ok {
					return 0, fmt.Errorf("plane probe np=%d: rank %d: message not deliverable (err %v)", np, i, err)
				}
			}
		}
		windows = append(windows, float64(time.Since(t0))/float64(6*steps))
	}
	return median(windows), nil
}

// probeAwaitTurn measures one uncontended AwaitTurn grant on a 64-endpoint
// plane (every other endpoint idle).
func probeAwaitTurn() (float64, error) {
	const np, turns = 64, 20000
	n := transport.NewNetwork(np, netmodel.Myrinet10G())
	for i := 1; i < np; i++ {
		n.Quiesce(i)
	}
	t0 := time.Now()
	for i := 1; i <= turns; i++ {
		if err := n.AwaitTurn(0, vtime.Time(i)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / turns, nil
}

// probeSnapshot builds a snapshot with a seeded image of the given size.
func probeSnapshot(bytes int) *checkpoint.Snapshot {
	img := make([]byte, bytes)
	rand.New(rand.NewSource(1)).Read(img)
	return &checkpoint.Snapshot{Rank: 0, Seq: 1, TakenVT: 1, AppState: img, ProtState: make([]byte, 256)}
}

// timeOp returns the mean duration of op in nanoseconds over enough calls
// to fill about budget.
func timeOp(budget time.Duration, op func()) float64 {
	op() // first call pays lazy set-up
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		op()
		n++
	}
	return float64(time.Since(t0)) / float64(n)
}

const probeBudget = 100 * time.Millisecond

// runProbes fills l with every probe metric; the error joins whatever the
// probed calls returned.
func runProbes(l map[string]float64) error {
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	for _, np := range planeNP {
		ns, err := probePlane(np)
		note(err)
		l["transport.ns_per_mutation_np"+strconv.Itoa(np)] = ns
	}
	l["transport.mutation_scaling_4096_over_64"] = l["transport.ns_per_mutation_np4096"] / l["transport.ns_per_mutation_np64"]
	turn, err := probeAwaitTurn()
	note(err)
	l["transport.await_turn_ns"] = turn

	// Snapshot codec and one direct Save of a 256 KiB snapshot per store.
	snap := probeSnapshot(256 << 10)
	mb := float64(snapshotRealBytes(snap)) / 1e6
	var blob []byte
	l["checkpoint.encode_snapshot_mb_per_s"] = mb / (timeOp(probeBudget, func() {
		var err error
		blob, err = checkpoint.EncodeSnapshot(snap)
		note(err)
	}) / 1e9)
	l["checkpoint.decode_snapshot_mb_per_s"] = mb / (timeOp(probeBudget, func() {
		_, err := checkpoint.DecodeSnapshot(blob)
		note(err)
	}) / 1e9)
	ec, err := hydee.NewECStore(4, 2, 0, 0, nil)
	if err != nil {
		return err
	}
	replica, err := hydee.NewReplicatedStore(3, 0, 0, nil)
	if err != nil {
		return err
	}
	for name, st := range map[string]hydee.Store{
		"mem": hydee.NewMemStore(0, 0), "sharded": hydee.NewShardedStore(4, 0, 0, nil), "ec": ec, "replica": replica,
	} {
		seq := 0
		l["checkpoint.save_us_"+name] = timeOp(probeBudget, func() {
			seq++
			s := *snap
			s.Seq = seq
			_, err := st.Save(&s, vtime.Time(seq))
			note(err)
		}) / 1e3
	}

	// Erasure codec: 4+2 over 1 MiB, reconstruct with two data fragments gone.
	code, err := erasure.New(4, 2)
	if err != nil {
		return err
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	var frags [][]byte
	l["erasure.split_mb_per_s"] = float64(len(data)) / 1e6 / (timeOp(probeBudget, func() { frags = code.Split(data) }) / 1e9)
	l["erasure.reconstruct_mb_per_s"] = float64(len(data)) / 1e6 / (timeOp(probeBudget, func() {
		have := append([][]byte(nil), frags...)
		have[0], have[2] = nil, nil
		_, err := code.Reconstruct(have)
		note(err)
	}) / 1e9)

	// Exporters: one checkpoint event through the hub and the JSONL encoder.
	ev := hydee.RunEvent{Kind: hydee.EvCheckpoint, Run: 1, VT: 12345, Rank: 3, Round: -1, Seq: 2}
	const events = 20000
	l["export.fanout_ns_per_event_0sub"] = probeFanout(ev, events, 0)
	l["export.fanout_ns_per_event_4sub"] = probeFanout(ev, events, 4)
	jsonl := hydee.NewJSONLExporter(io.Discard)
	l["export.jsonl_ns_per_event"] = timeOp(probeBudget, func() { jsonl.OnEvent(ev) })

	// Spec resolution, the per-run work of a job submission.
	spec := hydee.SweepSpec{App: "cg", NP: 16, Clusters: 4, CheckpointEvery: 2, FailAt: "ckpts:1@5"}
	l["server.spec_resolve_us"] = timeOp(probeBudget, func() {
		_, err := spec.Experiment()
		note(err)
	}) / 1e3
	return errors.Join(errs...)
}

// probeFanout times OnEvent on a hub with subs draining subscribers; the
// hub retains every event, so each measurement uses a fresh one.
func probeFanout(ev hydee.RunEvent, events, subs int) float64 {
	hub := hydee.NewFanoutExporter()
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		ch, _ := hub.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		hub.OnEvent(ev)
	}
	d := time.Since(t0)
	hub.Close()
	wg.Wait()
	return float64(d) / float64(events)
}

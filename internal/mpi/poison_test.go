package mpi_test

import (
	"context"
	"encoding/json"
	"testing"

	"hydee"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/core"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

// TestEnvelopePoison runs the reproducibility configurations — HydEE, mlog
// and coord with checkpoints and failures, over the default, a
// bandwidth-modelled and an ec:4+2 store — and the tiny Figure 6 sweep
// twice: once as the runtime runs, once with every released envelope
// filled with poison (mpi.PoisonReleased). The outputs must be byte-
// identical: no engine, store, receive or plane step may read an envelope
// after the runtime took it back (DESIGN.md "Envelope ownership").
func TestEnvelopePoison(t *testing.T) {
	assign := make([]int, 16)
	for r := range assign {
		assign[r] = r / 4
	}
	topo := rollback.NewTopology(assign)
	after := func(ckpts, rank int) failure.Event {
		return failure.Event{Ranks: []int{rank}, When: failure.Trigger{AfterCheckpoints: ckpts}}
	}
	ec42 := func() checkpoint.Store {
		st, err := checkpoint.NewECStore(4, 2, 1e9, 2e9, rollback.ClusterPlacement(topo, 6))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		name     string
		prot     rollback.Protocol
		failures []failure.Event
		store    func() checkpoint.Store
		prog     mpi.Program
	}{
		{"ring/hydee", core.New(), nil, nil, apps.Ring(8, 1024)},
		{"1-and-5/hydee", core.New(), []failure.Event{after(1, 1), after(1, 5)}, nil, apps.Ring(8, 1024)},
		{"1-and-5/mlog", core.NewMLog(), []failure.Event{after(1, 1), after(1, 5)}, nil, apps.Ring(8, 1024)},
		{"1-and-5/coord", rollback.Coordinated(), []failure.Event{after(1, 1), after(1, 5)}, nil, apps.Ring(8, 1024)},
		{"1-then-9/hydee", core.New(), []failure.Event{after(1, 1), after(2, 9)}, memStore2e9, apps.Ring(8, 1024)},
		{"1-then-9/mlog", core.NewMLog(), []failure.Event{after(1, 1), after(2, 9)}, memStore2e9, apps.Ring(8, 1024)},
		{"1-then-9/coord", rollback.Coordinated(), []failure.Event{after(1, 1), after(2, 9)}, memStore2e9, apps.Ring(8, 1024)},
		{"stencil-ec42/hydee", core.New(), []failure.Event{after(2, 6)}, ec42, apps.Stencil2D(8, 8192)},
		{"stencil-ec42/mlog", core.NewMLog(), []failure.Event{after(2, 6)}, ec42, apps.Stencil2D(8, 8192)},
		{"stencil-ec42/coord", rollback.Coordinated(), []failure.Event{after(2, 6)}, ec42, apps.Stencil2D(8, 8192)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mpi.Config{
				NP:              16,
				Topo:            topo,
				Protocol:        tc.prot,
				Model:           netmodel.Myrinet10G(),
				CheckpointEvery: 1,
				Failures:        tc.failures,
			}
			samePoisoned(t, func() any {
				c := cfg
				if tc.store != nil {
					c.Store = tc.store()
				}
				res, err := mpi.Run(c, tc.prog)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(tc.failures) > 0 && len(res.Rounds) == 0 {
					t.Fatal("no recovery round ran")
				}
				return virtualOnly(res)
			})
		})
	}
	clusterings, _, err := hydee.Clusterings(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	var fig6, e4 []hydee.ExperimentSpec
	for _, k := range apps.Registry() {
		for _, proto := range []hydee.ExperimentProto{hydee.ProtoNative, hydee.ProtoMLog, hydee.ProtoHydEE} {
			fig6 = append(fig6, hydee.ExperimentSpec{Kernel: k, Params: apps.Params{NP: 16, Iters: 2}, Proto: proto, Assign: clusterings[k.Name]})
		}
	}
	// E4's containment runs: a restarted receiver drops the stale copies
	// of messages the senders' logs replay (Engine.Admit).
	cg, err := apps.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []hydee.ExperimentProto{hydee.ProtoCoord, hydee.ProtoMLog, hydee.ProtoHydEE} {
		e4 = append(e4, hydee.ExperimentSpec{
			Kernel: cg, Params: apps.Params{NP: 16, Iters: 8}, Proto: proto, Assign: clusterings["cg"], CheckpointEvery: 3,
			Failures: []failure.Event{{Ranks: []int{8}, When: failure.Trigger{AfterCheckpoints: 1}}},
		})
	}
	for _, sweep := range []struct {
		name  string
		specs []hydee.ExperimentSpec
	}{{"fig6-tiny", fig6}, {"e4-cg", e4}} {
		specs := sweep.specs
		t.Run(sweep.name, func(t *testing.T) {
			samePoisoned(t, func() any {
				sums, err := hydee.RunExperiments(context.Background(), specs, 2)
				if err != nil {
					t.Fatal(err)
				}
				return sums
			})
		})
	}
}

// samePoisoned runs run as is and with poisoned envelopes and fails unless
// the two outputs encode to the same JSON bytes.
func samePoisoned(t *testing.T, run func() any) {
	t.Helper()
	plain := encodeJSON(t, run())
	restore := mpi.PoisonReleased()
	poisoned := encodeJSON(t, run())
	restore()
	if string(plain) != string(poisoned) {
		t.Errorf("poisoned envelopes changed the output:\n  plain    %s\n  poisoned %s", plain, poisoned)
	}
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Command quickstart runs a small send-deterministic stencil under HydEE,
// kills a process mid-run, and shows that only its cluster rolls back while
// the recovered execution matches the failure-free one bit-for-bit. It uses
// the Engine API: one engine per configuration, built with functional
// options, reusable across runs and observable through lifecycle events.
package main

import (
	"context"
	"fmt"
	"log"

	"hydee"
)

func main() {
	const (
		np    = 8
		iters = 12
	)
	ctx := context.Background()
	// Two clusters of four ranks.
	topo := hydee.NewTopology([]int{0, 0, 0, 0, 1, 1, 1, 1})
	program := hydee.StencilProgram(iters, 64*1024)

	base := []hydee.Option{
		hydee.WithTopology(topo),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithCheckpointEvery(4),
	}

	cleanEng, err := hydee.New(base...)
	if err != nil {
		log.Fatal(err)
	}
	clean, err := cleanEng.Run(ctx, program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free run:   makespan %v, %d messages, %d logged (%.1f%% of bytes)\n",
		clean.Makespan, clean.Totals.AppSends, clean.Totals.LoggedMsgs,
		100*float64(clean.Totals.LoggedBytes)/float64(clean.Totals.AppBytes))

	// Same configuration plus a failure plan and a lifecycle observer
	// narrating the recovery.
	failingEng, err := hydee.New(append(base,
		hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: []int{5},
			When:  hydee.FailureTrigger{AfterCheckpoints: 2},
		}),
		hydee.WithObserver(hydee.ObserverFunc(func(ev hydee.RunEvent) {
			switch ev.Kind {
			case hydee.EvFailure:
				fmt.Printf("  [observer] ranks %v failed at %v\n", ev.Ranks, ev.VT)
			case hydee.EvRecoveryStart:
				fmt.Printf("  [observer] recovery round %d rolls back ranks %v\n", ev.Round, ev.Ranks)
			case hydee.EvRecoveryEnd:
				fmt.Printf("  [observer] recovery round %d done at %v\n", ev.Round, ev.VT)
			}
		})),
	)...)
	if err != nil {
		log.Fatal(err)
	}
	failed, err := failingEng.Run(ctx, program)
	if err != nil {
		log.Fatal(err)
	}
	rd := failed.Rounds[0]
	fmt.Printf("run with failure:   makespan %v, rolled back %d/%d ranks, recovery %v, %d orphans\n",
		failed.Makespan, rd.RolledBack, np, rd.EndVT.Sub(rd.StartVT), rd.Orphans)

	for r := 0; r < np; r++ {
		if clean.Results[r] != failed.Results[r] {
			log.Fatalf("rank %d diverged after recovery: %v vs %v", r, clean.Results[r], failed.Results[r])
		}
	}
	fmt.Println("recovered execution matches the failure-free execution on every rank ✓")
	fmt.Printf("containment: the failure of rank 5 rolled back only cluster 1 (ranks 4-7), "+
		"while cluster 0 kept its work; %d logged messages were replayed\n",
		failed.Totals.ResentLogged)
}

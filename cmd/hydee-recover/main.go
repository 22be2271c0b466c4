// Command hydee-recover runs the failure-containment experiment (E4 in
// DESIGN.md): it injects a failure into a kernel under the coordinated
// baseline, full message logging, and HydEE, and reports how many ranks
// roll back, the recovery time, and the makespan cost — the quantitative
// backing for the paper's introduction claims (less rolled-back
// computation, faster recovery, freed resources). The kernel, network
// model and checkpoint store are selected by name through the hydee
// name tables (-store sharded:4 places each cluster's checkpoints on its
// own storage shard); with a sharded store and -store-bps it also prints
// the E5-extension burst comparison. -events streams every run's
// lifecycle to a JSONL file. Ctrl-C cancels.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"

	"hydee"
	"hydee/internal/apps"
	"hydee/internal/graph"
	"hydee/internal/harness"
)

func main() {
	np := flag.Int("np", 64, "number of ranks")
	iters := flag.Int("iters", 10, "timesteps")
	app := flag.String("app", "cg", "kernel (bt,cg,ft,lu,mg,sp)")
	ckpt := flag.Int("ckpt", 3, "checkpoint every k iterations")
	failAfter := flag.Int("fail-after", 1, "inject the failure after this many checkpoints")
	failAt := flag.String("fail-at", "", `inject the failure at a trigger spec instead of -fail-after: "vt:<duration>" (a virtual time — the kill is an ordered virtual-time event, so this one failure is byte-reproducible even landing mid-checkpoint-wave), "sends:<n>" or "ckpts:<n>"`)
	net := flag.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	var store hydee.StoreSpec
	store.Bind(flag.CommandLine)
	var stream hydee.EventStreamSpec
	stream.Bind(flag.CommandLine)
	flag.Parse()

	if *np <= 0 || *iters <= 0 || *ckpt <= 0 {
		log.Fatalf("hydee-recover: -np, -iters and -ckpt must be positive (got %d, %d, %d)", *np, *iters, *ckpt)
	}
	k, err := apps.Get(*app)
	if err != nil {
		log.Fatal(err)
	}
	model, err := hydee.ModelByName(*net)
	if err != nil {
		log.Fatal(err)
	}
	// Failure flags are validated eagerly with a typed error listing the
	// valid forms, like the -store probe below — a typo must fail at
	// startup, not yield a silently failure-free sweep.
	failWhen := hydee.FailureTrigger{AfterCheckpoints: *failAfter}
	if *failAt != "" {
		// The E4 experiment fixes its victim at rank np/2, so -fail-at
		// takes only the trigger; a spec naming ranks would be silently
		// ignored and is rejected instead.
		if strings.Contains(*failAt, "@") {
			log.Fatalf("hydee-recover: -fail-at %q: the E4 victim is fixed at rank np/2; give only the trigger (e.g. vt:1.5ms), without @ranks", *failAt)
		}
		events, err := hydee.ParseFailureSpec(*failAt + "@0")
		if err != nil {
			log.Fatal(err)
		}
		if len(events) != 1 {
			log.Fatalf("hydee-recover: -fail-at wants exactly one trigger, got %d events", len(events))
		}
		failWhen = events[0].When
	}
	if err := failWhen.Validate(); err != nil {
		log.Fatalf("hydee-recover: %v (valid -fail-at forms: %s)", err, hydee.FailureSpecForms)
	}
	// Probe the spec now so an unknown or misconfigured store fails
	// before any sweep work, not inside the first run.
	geometry, err := store.Probe()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, closeEvents, err := stream.Wire(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := closeEvents(); err != nil {
			log.Print(err)
		}
	}()

	cl, err := harness.ClusterApp(k, apps.Params{NP: *np, Iters: 2}, graph.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d ranks: %d clusters, %.2f%% logged, %.2f%% expected rollback (store %s)\n\n",
		k.Name, *np, cl.K, 100*cl.CutFrac, 100*cl.ExpRollback, store.Spec)

	rows, err := harness.Containment(ctx, k, *np, *iters, *ckpt, cl.Assign, failWhen, model, store.New)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hydee.FormatE4(rows))
	fmt.Println("every recovered execution was validated against its failure-free digests ✓")

	// The E5 burst comparison is about plain sharding; redundancy specs
	// (ec, replica) have their own shard-loss sweep (harness E6).
	if shards := geometry.Shards; shards > 1 && geometry.Parity == 0 && geometry.Replicas == 0 && store.BPS > 0 {
		burst, err := hydee.CheckpointBurst(ctx, k, *np, *iters, *ckpt, cl.Assign, store.BPS, shards, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nE5 extension — checkpoint I/O burst, shared vs staggered vs %d cluster-placed shards:\n", shards)
		fmt.Println(hydee.FormatE5(burst))
	}
}

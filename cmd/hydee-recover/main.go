// Command hydee-recover runs the failure-containment experiment (E4 in
// DESIGN.md): it injects a failure into a kernel under the coordinated
// baseline, full message logging, and HydEE, and reports how many ranks
// roll back, the recovery time, and the makespan cost — the quantitative
// backing for the paper's introduction claims (less rolled-back
// computation, faster recovery, freed resources). The flags fill a
// hydee.SweepSpec, the form a hydee-serve job takes, and resolve through
// its Experiment: the kernel, network model, failure plan and checkpoint
// store are selected by name (-store sharded:4 places each cluster's
// checkpoints on its own storage shard); with a sharded store and
// -store-bps it also prints the E5-extension burst comparison. -events
// streams every run's lifecycle to a JSONL file. Ctrl-C cancels.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"hydee"
	"hydee/cmd/internal/cli"
)

func main() {
	spec := hydee.SweepSpec{Proto: "native"} // the trace's; E4 and E5 pick their own
	flag.IntVar(&spec.NP, "np", 64, "number of ranks")
	flag.IntVar(&spec.Iters, "iters", 10, "timesteps")
	flag.StringVar(&spec.App, "app", "cg", "kernel (bt,cg,ft,lu,mg,sp)")
	flag.IntVar(&spec.CheckpointEvery, "ckpt", 3, "checkpoint every k iterations")
	flag.StringVar(&spec.FailAt, "fail-at", "", `failure plan (default ckpts:1@<np/2>, one failure of rank np/2 after its first checkpoint); forms `+hydee.FailureSpecForms+`. It must open exactly one recovery round. A vt: trigger is an ordered virtual-time event, so the failure is byte-reproducible even landing mid-checkpoint-wave`)
	flag.StringVar(&spec.Net, "net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	spec.StoreSpec.Bind(flag.CommandLine)
	cli.Main(func(ctx context.Context) error {
		// SweepSpec reads an omitted iters as 3 and ckpt 0 as none;
		// neither is an E4 run.
		if spec.Iters <= 0 || spec.CheckpointEvery <= 0 {
			return fmt.Errorf("hydee-recover: -iters and -ckpt must be positive (got %d, %d)", spec.Iters, spec.CheckpointEvery)
		}
		if spec.FailAt == "" {
			spec.FailAt = fmt.Sprintf("ckpts:1@%d", spec.NP/2)
		}
		base, err := spec.Experiment()
		if err != nil {
			return err
		}
		geometry, err := spec.Probe()
		if err != nil {
			return err
		}

		trace := base
		trace.Params.Iters, trace.CheckpointEvery, trace.Failures, trace.NewStore = 2, 0, nil, nil
		sum, err := hydee.RunExperiment(trace)
		if err != nil {
			return err
		}
		cl := hydee.Cluster(hydee.CommGraphFromPairBytes(spec.NP, sum.PairBytes), hydee.DefaultClusterOptions())
		base.Assign = cl.Assign
		fmt.Printf("%s on %d ranks: %d clusters, %.2f%% logged, %.2f%% expected rollback (store %s)\n\n",
			base.Kernel.Name, spec.NP, cl.K, 100*cl.CutFrac, 100*cl.ExpRollback, spec.Spec)

		rows, err := hydee.Containment(ctx, base)
		if err != nil {
			return err
		}
		fmt.Println(hydee.FormatE4(rows))
		fmt.Println("every recovered execution was validated against its failure-free digests ✓")

		// The E5 burst comparison is about plain sharding; redundancy specs
		// (ec, replica) have their own shard-loss sweep (E6).
		if shards := geometry.Shards; shards > 1 && geometry.Parity == 0 && geometry.Replicas == 0 && spec.BPS > 0 {
			burst, err := hydee.CheckpointBurst(ctx, base, spec.BPS, shards)
			if err != nil {
				return err
			}
			fmt.Printf("\nE5 extension — checkpoint I/O burst, shared vs staggered vs %d cluster-placed shards:\n", shards)
			fmt.Println(hydee.FormatE5(burst))
		}
		return nil
	})
}

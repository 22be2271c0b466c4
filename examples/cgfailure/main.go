// Command cgfailure runs the CG kernel (the paper's most cluster-friendly
// benchmark) on 64 ranks, clusters it with the communication-graph tool,
// and compares how far a single failure spreads under HydEE, full message
// logging, and globally coordinated checkpointing — the failure-containment
// story of the paper's introduction. The six runs (clean and failing, per
// protocol) execute concurrently through the experiment worker pool.
package main

import (
	"context"
	"fmt"
	"log"

	"hydee"
)

func main() {
	const (
		np    = 64
		iters = 10
	)
	ctx := context.Background()
	kernel, err := hydee.KernelByName("cg")
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: trace the communication graph and cluster it.
	sum, err := hydee.RunExperiment(hydee.ExperimentSpec{
		Kernel: kernel,
		Params: hydee.KernelParams{NP: np, Iters: 2},
		Proto:  hydee.ProtoNative,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := hydee.CommGraphFromPairBytes(np, sum.PairBytes)
	cl := hydee.Cluster(g, hydee.DefaultClusterOptions())
	fmt.Printf("clustering: %d clusters, %.2f%% of bytes logged, %.2f%% expected rollback\n",
		cl.K, 100*cl.CutFrac, 100*cl.ExpRollback)

	// Step 2: inject a failure under each fault-tolerant protocol. Each
	// protocol needs a clean run (reference digests) and a failing run;
	// all six are independent, so they go through one parallel sweep.
	protos := []struct {
		p    hydee.ExperimentProto
		kind string
	}{
		{hydee.ProtoCoord, "coordinated checkpointing"},
		{hydee.ProtoMLog, "full message logging"},
		{hydee.ProtoHydEE, "HydEE"},
	}
	var specs []hydee.ExperimentSpec
	for _, proto := range protos {
		spec := hydee.ExperimentSpec{
			Kernel:          kernel,
			Params:          hydee.KernelParams{NP: np, Iters: iters},
			Proto:           proto.p,
			Assign:          cl.Assign,
			CheckpointEvery: 3,
		}
		clean := spec
		specs = append(specs, clean)
		spec.Failures = []hydee.FailureEvent{{
			Ranks: []int{np / 2},
			When:  hydee.FailureTrigger{AfterCheckpoints: 1},
		}}
		specs = append(specs, spec)
	}
	sums, err := hydee.RunExperiments(ctx, specs, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, proto := range protos {
		cleanSum, failSum := sums[2*i], sums[2*i+1]
		for r := 0; r < np; r++ {
			if cleanSum.Digests[r] != failSum.Digests[r] {
				log.Fatalf("%s: rank %d diverged after recovery", proto.kind, r)
			}
		}
		rd := failSum.Rounds[0]
		fmt.Printf("%-26s rolled back %2d/%d ranks (%5.1f%%), recovery %v, makespan %v (+%.1f%%)\n",
			proto.kind+":", rd.RolledBack, np, 100*float64(rd.RolledBack)/float64(np),
			rd.EndVT.Sub(rd.StartVT), failSum.Makespan,
			100*(float64(failSum.Makespan)/float64(cleanSum.Makespan)-1))
	}
	fmt.Println("all recovered executions match their failure-free runs ✓")
}

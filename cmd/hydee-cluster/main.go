// Command hydee-cluster runs the off-line process-clustering tool (Ropars
// et al., Euro-Par 2011) the paper uses in §V-B3 on one kernel or on all
// six, printing Table-I rows — clusters, expected rollback and the share
// of bytes HydEE logs — then the paper's values at 256 ranks, and, with
// -assign, the full cluster assignment usable in HydEE configurations.
// The network model is selected by name over hydee's name tables, the
// six kernel traces run in parallel, and -events streams every trace's
// lifecycle to a JSONL file.
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
)

func main() {
	np := flag.Int("np", 256, "number of ranks")
	iters := flag.Int("iters", 2, "iterations to trace")
	app := flag.String("app", "", "kernel to cluster (bt,cg,ft,lu,mg,sp); empty = all")
	net := flag.String("net", "myrinet10g", "network model for the traces ("+strings.Join(hydee.ModelNames(), ", ")+"); clustering output is model-independent — rows derive from payload byte counts only")
	par := flag.Int("par", 0, "parallel traces (0 = one per CPU)")
	showAssign := flag.Bool("assign", false, "print the per-rank cluster assignment")
	var stream hydee.EventStreamSpec
	stream.Bind(flag.CommandLine)
	flag.Parse()

	if *np <= 0 || *iters <= 0 {
		log.Fatalf("hydee-cluster: -np and -iters must be positive (got %d, %d)", *np, *iters)
	}
	model, err := hydee.ModelByName(*net)
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

	rows, err := hydee.Table1(ctx, *np, *iters, model, *par)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		if *app != "" && r.App != strings.ToLower(*app) {
			continue
		}
		fmt.Printf("%-4s clusters=%-3d rollback=%6.2f%%  logged=%.0f/%.0f GB (%.2f%%)\n",
			strings.ToUpper(r.App), r.K, r.RollbackPct, r.LoggedGB, r.TotalGB, r.LoggedPct)
		if *showAssign {
			fmt.Printf("  assign: %v\n", r.Assign)
		}
	}
	fmt.Println("\npaper values at 256 ranks: BT 5/21.78%/18.09%, CG 16/6.25%/18.98%,")
	fmt.Println("FT 2/50%/50.19%, LU 8/12.5%/13.26%, MG 4/25%/19.63%, SP 6/18.56%/20.04%")
}

// Command hydee-nas regenerates Figure 6 of the paper: failure-free
// normalized execution time of the six NAS kernels under native MPICH2,
// a comparator protocol (full message logging by default), and HydEE with
// the clustering of Table I. The expected shape: native <= HydEE <= full
// logging everywhere, with HydEE overhead at most ~2% (the paper measures
// at most 1.25% on 256 ranks).
//
// The comparator protocol and network model are selected by name through
// hydee's name tables, the independent runs of the sweep execute in
// parallel, and -events streams every run's lifecycle to a JSONL file.
// Ctrl-C cancels the sweep cleanly.
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
	np := flag.Int("np", 256, "number of ranks (256 reproduces the paper)")
	iters := flag.Int("iters", 3, "timesteps per kernel")
	traceIters := flag.Int("trace-iters", 2, "iterations used to trace the communication graphs")
	proto := flag.String("proto", "mlog", "comparator protocol: "+strings.Join(hydee.ExperimentProtoNames(), ", "))
	net := flag.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	par := flag.Int("par", 0, "parallel runs in the sweep (0 = one per CPU)")
	cli.Main(func(ctx context.Context) error {
		if *np <= 0 || *iters <= 0 || *traceIters <= 0 {
			return fmt.Errorf("hydee-nas: -np, -iters and -trace-iters must be positive (got %d, %d, %d)", *np, *iters, *traceIters)
		}
		comparator, err := hydee.ExperimentProtoByName(*proto)
		if err != nil {
			return err
		}
		model, err := hydee.ModelByName(*net)
		if err != nil {
			return err
		}

		t1, err := hydee.Table1(ctx, *np, *traceIters, model, *par)
		if err != nil {
			return err
		}
		clusterings := make(map[string][]int, len(t1))
		for _, r := range t1 {
			clusterings[r.App] = r.Assign
		}
		fmt.Printf("Table I — application clustering on %d processes (%s):\n", *np, model.Name())
		fmt.Println(hydee.FormatTable1(t1))

		rows, err := hydee.Figure6(ctx, *np, *iters, clusterings, model, comparator, *par)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 6 — NAS failure-free performance on %d processes (normalized to native, comparator %s):\n",
			*np, comparator)
		fmt.Println(hydee.FormatFigure6(rows))

		worst := 0.0
		for _, r := range rows {
			if r.HydEEPct > worst {
				worst = r.HydEEPct
			}
		}
		fmt.Printf("maximum HydEE overhead: %.2f%% (paper: at most 1.25%% / 2%%)\n", worst)
		return nil
	})
}

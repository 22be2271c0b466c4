// Command clustering demonstrates the off-line process-clustering tool
// (Ropars et al., Euro-Par 2011) the paper uses in §V-B3: it traces the
// communication graph of each NAS kernel and prints a Table-I-style row —
// number of clusters, expected rollback percentage, and the share of bytes
// HydEE would have to log.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"hydee"
)

func main() {
	np := flag.Int("np", 64, "number of ranks to trace (256 reproduces the paper)")
	iters := flag.Int("iters", 2, "iterations to trace")
	net := flag.String("net", "myrinet10g", "network model for the traces ("+strings.Join(hydee.ModelNames(), ", ")+"); clustering output is model-independent — rows derive from payload byte counts only")
	flag.Parse()

	model, err := hydee.ModelByName(*net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustering the six NAS kernels at %d ranks (paper Table I at 256):\n\n", *np)
	rows, err := hydee.Table1(context.Background(), *np, *iters, model, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %10s %22s %26s\n", "App", "Clusters", "Avg ranks to roll back", "Log/Total data")
	for _, r := range rows {
		fmt.Printf("%-6s %10d %21.2f%% %12.0f/%-6.0f GB (%.2f%%)\n",
			strings.ToUpper(r.App), r.K, r.RollbackPct, r.LoggedGB, r.TotalGB, r.LoggedPct)
	}
	fmt.Println("\npaper values at 256 ranks: BT 5/21.78%/18.09%, CG 16/6.25%/18.98%,")
	fmt.Println("FT 2/50%/50.19%, LU 8/12.5%/13.26%, MG 4/25%/19.63%, SP 6/18.56%/20.04%")
}

// Command hydee-netpipe regenerates Figure 5 of the paper: a NetPIPE-style
// ping-pong sweep over the Myrinet 10G model comparing native MPICH2
// against HydEE between two processes of the same cluster (no logging) and
// of different clusters (with logging). The expected shape: degradation
// only for small messages, with peaks where the 16-byte piggyback pushes a
// message across a native latency plateau, and near-identical curves with
// and without logging (the log copy overlaps transmission).
//
// The network model is selected by name over hydee's name tables, the
// three configurations' runs of every size go through one worker pool,
// and -events streams every run's lifecycle to a JSONL file.
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
	reps := flag.Int("reps", 10, "round trips per message size")
	net := flag.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	var stream hydee.EventStreamSpec
	stream.Bind(flag.CommandLine)
	flag.Parse()

	if *reps <= 0 {
		log.Fatalf("hydee-netpipe: -reps must be positive (got %d)", *reps)
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

	rows, err := hydee.Figure5(ctx, model, nil, *reps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 5 — %s ping-pong performance (reduction vs native MPICH2, %%):\n", model.Name())
	fmt.Println(hydee.FormatFigure5(rows))

	// Headline observations.
	var worstLat hydee.Fig5Row
	var large hydee.Fig5Row
	for _, r := range rows {
		if r.LatRedNoLogPct < worstLat.LatRedNoLogPct {
			worstLat = r
		}
		if r.Bytes >= 1<<20 && large.Bytes == 0 {
			large = r
		}
	}
	fmt.Printf("worst small-message latency degradation: %.1f%% at %d bytes (piggyback crosses a plateau)\n",
		worstLat.LatRedNoLogPct, worstLat.Bytes)
	fmt.Printf("at %d bytes: no-logging %.2f%%, with-logging %.2f%% (logging is free — overlapped memcpy)\n",
		large.Bytes, large.LatRedNoLogPct, large.LatRedLogPct)
}

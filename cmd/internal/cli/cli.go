// Package cli is the command runner the sweep binaries share: each
// binary is its flag table and a body run by Main.
package cli

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hydee"
)

// Main binds the shared -events/-exporter flags beside the binary's own,
// parses the command line and runs body under a context that SIGINT and
// SIGTERM cancel and that streams every run's lifecycle events. The
// stream is closed before Main returns, so a failed or interrupted sweep
// still flushes what it holds (a metrics exporter writes its summary
// line on close); any error, body's or the stream's, is logged and the
// process exits 1.
func Main(body func(ctx context.Context) error) {
	var stream hydee.EventStreamSpec
	stream.Bind(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ctx, closeEvents, err := stream.Wire(ctx)
	if err == nil {
		err = errors.Join(body(ctx), closeEvents())
	}
	stop()
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// Command hydee-serve exposes the experiment harness as an HTTP sweep
// service: clients POST batches of runs as JSON (every backend — kernel,
// protocol, network model, checkpoint store, failure schedule — selected
// by name, the same compact forms the CLI flags take), poll or
// stream each job's lifecycle events live over SSE, and cancel jobs
// mid-run. Runs execute on the same deterministic virtual-time engine as
// the CLI, so a sweep submitted over HTTP produces summaries
// byte-identical to a serial in-process run.
//
//	hydee-serve -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{"runs":[{"app":"cg","np":64,"clusters":8,"ckpt":2,"fail_at":"ckpts:1@32"}]}'
//	curl -N localhost:8080/v1/jobs/1/events     # live SSE, replayed from the start
//	curl -s -X DELETE localhost:8080/v1/jobs/1  # cancel
//
// SIGINT/SIGTERM drains gracefully: no new submissions, running jobs
// finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"hydee/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 16, "job queue capacity (submissions beyond it get 503)")
	concurrency := flag.Int("concurrency", 1, "jobs running at once")
	par := flag.Int("par", 0, "per-job parallel runs (0 = one per CPU)")
	eventDir := flag.String("event-dir", "", "root for per-job event files (empty = temp dir)")
	exporter := flag.String("exporter", "jsonl", "exporter for per-job event files")
	drain := flag.Duration("drain", time.Minute, "shutdown grace for running jobs before their contexts are canceled")
	flag.Parse()

	srv, err := server.New(server.Config{
		Queue:       *queue,
		Concurrency: *concurrency,
		Parallelism: *par,
		EventDir:    *eventDir,
		Exporter:    *exporter,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("hydee-serve: listening on %s, events under %s", *addr, srv.EventDir())

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("hydee-serve: draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the job pool first so jobs settle and SSE streams terminate
	// with their summary events, then close the listener and connections.
	if err := srv.Close(drainCtx); err != nil {
		log.Printf("hydee-serve: drain cut short: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hydee-serve: shutdown: %v", err)
	}
	log.Print("hydee-serve: bye")
}

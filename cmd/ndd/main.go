// Command ndd is the neighbor-discovery daemon: the scenario engine as a
// long-running HTTP service. It accepts scenario, suite, sweep and
// adaptive job submissions, runs them over one shared worker pool behind a
// bounded priority queue, streams progress and per-point results as
// Server-Sent Events, answers repeated submissions from a result cache
// keyed by the canonical spec hash, and — when -journal names a directory —
// persists jobs so a killed daemon resumes unfinished work on restart.
//
// Every served document is byte-identical (after stripping the runtime
// sections) to what the equivalent ndscen invocation writes: the service
// layer schedules and caches, it never perturbs results.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (kind, name/inline spec, options)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status + runtime metrics
//	GET    /v1/jobs/{id}/result finished document (JSON)
//	GET    /v1/jobs/{id}/events SSE stream: progress, point, result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/presets          registry listing (presets, suites, sweeps, adaptive)
//	GET    /healthz             health + queue/cache counters
//
// Usage:
//
//	ndd -addr 127.0.0.1:8080
//	ndd -addr 127.0.0.1:0 -workers 8 -journal /var/lib/ndd
//	curl -s -X POST localhost:8080/v1/jobs -d '{"kind":"suite","name":"paper-fig7"}'
//	curl -s localhost:8080/v1/jobs/{id}/result
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
		workers = flag.Int("workers", 0, "engine worker goroutines per job (0 = GOMAXPROCS)")
		runners = flag.Int("runners", 1, "jobs executing concurrently")
		queue   = flag.Int("queue", 64, "max queued jobs before submissions get 429")
		cache   = flag.Int("cache", 128, "finished jobs retained for result-cache hits")
		journal = flag.String("journal", "", "journal directory: persist jobs and resume unfinished ones on restart")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	srv, err := server.New(server.Config{
		Workers:      *workers,
		Runners:      *runners,
		QueueSize:    *queue,
		CacheEntries: *cache,
		JournalDir:   *journal,
	})
	if err != nil {
		fatal(err)
	}

	// The handler goes in before the listen line is printed: a supervisor
	// may send SIGTERM the moment it reads that line, and a signal arriving
	// before Notify would kill the daemon undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address (ephemeral ports included) goes to stderr
	// before serving: scripts and the e2e harness parse this line.
	fmt.Fprintf(os.Stderr, "ndd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "ndd: %v: shutting down\n", got)
	case err := <-errc:
		fatal(err)
	}

	// Graceful drain: stop accepting, finish in-flight responses, then
	// stop the runners (canceling the running job; journal-backed jobs
	// resume on the next start).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ndd: shutdown: %v\n", err)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndd: %v\n", err)
	os.Exit(1)
}

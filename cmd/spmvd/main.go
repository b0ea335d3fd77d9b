// Command spmvd serves SpMV over HTTP: clients upload matrices
// (Matrix Market text or the matfile binary container), the daemon
// verifies and builds them into the paper's compressed formats once,
// and concurrent y = A·x requests against the cached build are
// admission-controlled, deadline-bounded and coalesced into SpMM
// panels (PR 4: a width-8 panel reads the matrix stream once for
// eight results). See DESIGN.md §12 for the pipeline.
//
// Usage:
//
//	spmvd [-addr :8090] [-mem-budget 256] [-max-upload 64]
//	      [-max-batch 8] [-queue 64] [-per-client 16]
//	      [-deadline 10s] [-drain-timeout 15s]
//	      [-threads 0] [-quiet] [-log]
//	      [-roofdir benchdata] [-selfcheck]
//
// Endpoints:
//
//	POST /matrices[?format=NAME]     upload, returns {"id": ...}
//	GET  /matrices                   list admitted matrices
//	GET  /matrices/{id}              one matrix's metadata
//	DELETE /matrices/{id}            evict
//	POST /matrices/{id}/multiply     {"x": [...]} -> {"y": [...]}
//	GET  /metrics                    live counters + per-matrix stats
//	GET  /metrics.prom               Prometheus text-format exposition
//	GET  /healthz                    liveness (503 while draining)
//	GET  /debug/pprof/               Go profiling endpoints
//
// With -log every failed request emits one structured JSON record on
// stderr (log/slog: request id, matrix, client, HTTP status, error,
// span timings) instead of plain printf lines — the machine-parseable
// audit stream. -quiet wins over -log.
//
// An upload's format is a registry name (csr, csr-du, csr-vi, ...), or
// auto, which times the tuner's short list on this host and keeps the
// winner. A Matrix Market upload that names none is built as csr-du; a
// matfile upload is admitted in the format it stores.
//
// The daemon loads the host's measured bandwidth model from
// -roofdir/ROOF_<host>.json when present (see spmvbench -roofprobe);
// its ceilings are served as spmv_roofline_ceiling_gbps gauges on
// /metrics.prom so dashboards can plot served bandwidth against the
// memory wall. Without an archive there are no ceiling gauges.
//
// SIGTERM or SIGINT triggers a graceful drain: the listener stops
// accepting, in-flight and queued requests finish (bounded by
// -drain-timeout), then the executor pools shut down.
//
// With -selfcheck the daemon starts on a loopback port, runs an
// end-to-end smoke against itself (upload, query, multiply checked
// against a reference product, corrupt upload rejected, overload
// shedding with 429, SIGTERM drain), and exits 0 on success — the
// verify.sh server gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spmv/internal/roofline"
	"spmv/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		memBudget    = flag.Int64("mem-budget", 256, "matrix cache budget in MiB (LRU evicts beyond it)")
		maxUpload    = flag.Int64("max-upload", 64, "largest accepted upload in MiB")
		maxBatch     = flag.Int("max-batch", 8, "widest coalesced SpMM panel")
		queue        = flag.Int("queue", 64, "admission queue depth per matrix (beyond it: 429)")
		perClient    = flag.Int("per-client", 16, "concurrent requests allowed per client (beyond it: 429)")
		deadline     = flag.Duration("deadline", 10*time.Second, "default and maximum per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget on SIGTERM")
		threads      = flag.Int("threads", 0, "executor threads per matrix (0 = GOMAXPROCS)")
		quiet        = flag.Bool("quiet", false, "suppress per-event logging")
		logJSON      = flag.Bool("log", false, "emit structured JSON log records (log/slog) on stderr; failed requests carry id/matrix/status/error/span timings")
		roofDir      = flag.String("roofdir", "benchdata", "directory holding ROOF_<host>.json bandwidth probe archives (spmvbench -roofprobe)")
		selfcheck    = flag.Bool("selfcheck", false, "serve on a loopback port, smoke-test against self, exit")
	)
	flag.Parse()

	cfg := server.Config{
		MemoryBudget:    *memBudget << 20,
		MaxUploadBytes:  *maxUpload << 20,
		MaxBatch:        *maxBatch,
		QueueDepth:      *queue,
		MaxPerClient:    *perClient,
		DefaultDeadline: *deadline,
		Threads:         *threads,
	}
	switch {
	case *quiet:
		// No sinks: the server drops both printf lines and structured
		// records.
	case *logJSON:
		// Structured-only: operational printf lines flow through the
		// logger's Warn level, failed requests get typed attrs.
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		cfg.Logf = func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, "spmvd: "+f+"\n", args...)
		}
	}
	if m, err := roofline.Load(*roofDir); err == nil {
		cfg.Roofline = m
	}

	if *selfcheck {
		if err := runSelfcheck(cfg, *drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "spmvd: selfcheck FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("spmvd: selfcheck ok")
		return
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmvd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "spmvd: serving on %s (budget %d MiB)\n", lis.Addr(), *memBudget)
	if err := serve(cfg, lis, *drainTimeout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "spmvd: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the daemon on lis until SIGTERM/SIGINT, then drains
// gracefully: the listener closes, in-flight handlers finish, queued
// work executes, executor pools shut down — all bounded by
// drainTimeout. If ready is non-nil it receives the app handle once
// the listener is accepting (the selfcheck hook).
func serve(cfg server.Config, lis net.Listener, drainTimeout time.Duration, ready chan<- *server.Server) error {
	app := server.New(cfg)
	httpSrv := &http.Server{
		Handler:           app,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(lis) }()
	if ready != nil {
		ready <- app
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		// Listener failure before any signal: nothing to drain.
		app.Close()
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigc:
		app.Logf("received %v, draining (budget %s)", sig, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop accepting and wait for in-flight handlers, then drain the
	// coalescer backlogs and shut the executor pools down.
	shutErr := httpSrv.Shutdown(ctx)
	drainErr := app.Drain(ctx)
	<-errc // Serve has returned http.ErrServerClosed
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	app.Logf("drained cleanly")
	return nil
}

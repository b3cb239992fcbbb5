// Command vnserved runs the analysis-as-a-service daemon: the HTTP
// API of internal/serve (analyze, verify, job status, SSE progress,
// stats, metrics, pprof) over a bounded worker pool with a
// content-addressed result cache.
//
// SIGINT/SIGTERM drains gracefully: admission stops (new submits get
// 503), queued and running jobs finish (bounded by -drain-timeout,
// after which they are hard-canceled through their contexts), and the
// process exits 0. With -stats-json, the final server stats are
// written as a run record (ledger.Record) on the way out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minvn/internal/obs/ledger"
	"minvn/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("vnserved", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8437", "listen address")
	workers := fs.Int("workers", 4, "concurrent checking jobs; a search that sets neither workers nor engine gets GOMAXPROCS divided by the jobs running as it starts")
	queueDepth := fs.Int("queue-depth", 16, "admission queue depth (beyond running jobs)")
	cacheEntries := fs.Int("cache-entries", 256, "result cache capacity (-1 disables)")
	maxStates := fs.Int("max-states", 2_000_000, "per-job stored-state cap (requests are clamped to it)")
	defaultDeadline := fs.Duration("deadline", 2*time.Minute, "default per-job deadline")
	maxDeadline := fs.Duration("max-deadline", 10*time.Minute, "largest per-job deadline a request may ask for")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	progressEvery := fs.Int("progress-every", 50_000, "SSE progress snapshot every N stored states")
	statsJSON := fs.String("stats-json", "", "write final server stats as a JSON run record to this file on shutdown")
	jobLog := fs.String("job-log", "", "append the structured per-job JSONL lifecycle log to this file (\"-\" = stderr); rotate it externally")
	jobLogLevel := fs.String("job-log-level", "info", "minimum job-log level: debug, info, warn, or error")
	traceJobs := fs.Int("trace-jobs", 4, "keep per-job flight recorders for the N most recent jobs (GET /debug/trace; 0 disables)")
	ledgerPath := fs.String("ledger", "", "append one content-addressed record per completed job to this run-ledger file (GET /v1/runs pages it)")
	fs.Parse(os.Args[1:])

	var level slog.Level
	if err := level.UnmarshalText([]byte(*jobLogLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "vnserved: -job-log-level %q: want debug, info, warn, or error\n", *jobLogLevel)
		os.Exit(2)
	}
	var jobLogger *slog.Logger
	var logFile *os.File
	switch *jobLog {
	case "":
	case "-":
		jobLogger = serve.NewJobLog(os.Stderr, level)
	default:
		f, err := os.OpenFile(*jobLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vnserved:", err)
			os.Exit(1)
		}
		defer f.Close()
		jobLogger = serve.NewJobLog(f, level)
		logFile = f
	}

	var led *ledger.Ledger
	if *ledgerPath != "" {
		l, err := ledger.Open(*ledgerPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vnserved:", err)
			os.Exit(1)
		}
		defer l.Close()
		led = l
	}

	if err := run(*addr, serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		MaxStates:       *maxStates,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		ProgressEvery:   *progressEvery,
		JobLog:          jobLogger,
		TraceJobs:       *traceJobs,
		Ledger:          led,
	}, *drainTimeout, *statsJSON, logFile); err != nil {
		fmt.Fprintln(os.Stderr, "vnserved:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration, statsJSON string, logFile *os.File) error {
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "vnserved: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	select {
	case err := <-httpErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "vnserved: draining...")

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "vnserved: drain cut short: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "vnserved: http shutdown: %v\n", err)
	}
	// The drain is the last moment this process owns its on-disk
	// telemetry: fsync the job log and run ledger so both survive a
	// power cut right after exit.
	if logFile != nil {
		if err := logFile.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "vnserved: job-log sync: %v\n", err)
		}
	}
	if cfg.Ledger != nil {
		if err := cfg.Ledger.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "vnserved: ledger sync: %v\n", err)
		}
	}

	if statsJSON != "" {
		st := srv.Stats()
		rec := ledger.New("vnserved")
		rec.Params["addr"] = addr
		rec.Params["workers"] = st.Workers
		rec.Params["queue_depth"] = st.QueueDepth
		rec.Outcome = "drained"
		rec.Extra = map[string]any{"metrics": st}
		if err := rec.WriteFile(statsJSON); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
	}
	fmt.Fprintln(os.Stderr, "vnserved: stopped")
	return nil
}

// Command vnworkerd runs one distributed model-checking worker: an
// HTTP daemon that owns a hash range of state-fingerprint space for
// whatever run a coordinator (a CLI or vnserved with -engine dist)
// assigns it. One daemon serves one run at a time; point the
// coordinator's -peers flag at a fleet of these, one URL per worker.
//
//	vnworkerd -listen :9410
//
// The daemon keeps nothing of a run once it ends: its coordinator
// cancels the run on every worker however it ended, and a new init
// replaces any previous run's shard. The one exception is its free frame
// buffers, which serve the next run and are never trimmed, so an idle
// daemon holds about as much in them as it held in frames at once.
// Restarting it is always safe; the coordinator detects the loss and
// fails the affected job cleanly.
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

	"minvn/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vnworkerd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9410", "address to serve the worker API on")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vnworkerd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: dist.NewWorker().Handler()}
	fmt.Fprintf(os.Stderr, "vnworkerd: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vnworkerd: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		return 0
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "vnworkerd: %v\n", err)
			return 1
		}
		return 0
	}
}

// Command dieventd serves the DiEvent multi-tenant ingest/query API
// (DESIGN.md §11): each tenant an isolated repository under -root, with
// admission control, per-tenant append quotas and disk limits, FOLLOW
// streaming, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	dieventd -root /var/lib/dievent [-addr 127.0.0.1:8080] \
//	    [-max-inflight 256] [-append-rate 50000] [-append-burst 100000] \
//	    [-max-followers 64] [-max-disk-bytes 0] \
//	    [-idle-close 0] [-drain-timeout 30s]
//
// The chosen listen address is printed as "dieventd listening on ADDR"
// once the socket is bound (so -addr :0 is scriptable). On SIGTERM the
// server stops admitting, terminates followers with a drain envelope,
// waits for in-flight requests (bounded by -drain-timeout), seals and
// closes every tenant repository, and exits 0 — after which an offline
// fsck of every tenant directory is clean.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		root         = flag.String("root", "", "root directory for tenant repositories (required)")
		maxInflight  = flag.Int("max-inflight", 256, "bound on concurrently admitted requests")
		appendRate   = flag.Float64("append-rate", 50000, "per-tenant append quota, records/second")
		appendBurst  = flag.Int("append-burst", 0, "per-tenant append burst (default 2x rate)")
		maxFollowers = flag.Int("max-followers", 64, "per-tenant cap on open FOLLOW streams (-1 = unlimited)")
		maxDiskBytes = flag.Int64("max-disk-bytes", 0, "per-tenant disk quota in bytes of segments (0 = unlimited)")
		idleClose    = flag.Duration("idle-close", 0, "release a tenant's writer lease after this idle time (0 = never)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM drain sequence")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "dieventd: -root is required")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "dieventd: ", log.LstdFlags|log.Lmicroseconds)
	svc, err := service.New(service.Config{
		Root:         *root,
		MaxInflight:  *maxInflight,
		AppendRate:   *appendRate,
		AppendBurst:  *appendBurst,
		MaxFollowers: *maxFollowers,
		MaxDiskBytes: *maxDiskBytes,
		IdleClose:    *idleClose,
		Logf:         logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dieventd: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dieventd: %v\n", err)
		os.Exit(1)
	}
	// Stdout, unbuffered-by-newline: the e2e harness parses this line.
	fmt.Printf("dieventd listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: svc}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v, draining (timeout %v)", sig, *drainTimeout)
	case err := <-serveErr:
		logger.Printf("serve failed: %v", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	start := time.Now()
	// Drain first (stops admitting, kills followers, closes tenants —
	// releasing every writer lease), then shut the listener down; the
	// order matters because Shutdown waits for active streams, which
	// only finish once Drain terminates them.
	drainErr := svc.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		logger.Printf("drain failed after %v: %v", time.Since(start).Round(time.Millisecond), drainErr)
		os.Exit(1)
	}
	logger.Printf("drain complete in %v", time.Since(start).Round(time.Millisecond))
}

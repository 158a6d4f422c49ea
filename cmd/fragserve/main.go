// Command fragserve serves a blob store stack over HTTP — the
// network front-end for the repo's simulated stores. Any composition
// the experiments run (file/db core, shard fleet, read cache, group
// commit) can sit behind the listener; the wire protocol is documented
// in internal/server/wire.
//
// Usage:
//
//	fragserve [flags]
//
// Examples:
//
//	fragserve -addr :8080 -backend file -capacity 4G
//	fragserve -backend db -mode data -groupcommit
//	fragserve -backend file -shards 4 -cache 256M
//	fragserve -maxinflight 128 -maxqueue 256 -queuetimeout 250ms
//
// The server keeps no state between requests, so there is nothing to
// reap or release: the process runs until SIGINT/SIGTERM, then the
// listener drains in-flight requests and the exit code is 0. /metrics
// and /report expose wall-clock latency live.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		backend      = flag.String("backend", "file", "store backend: file or db")
		shards       = flag.Int("shards", 1, "shard count (1 = single volume)")
		capacity     = flag.String("capacity", "4G", "per-volume capacity")
		mode         = flag.String("mode", "data", "disk mode: data (payload bytes retained) or meta (metadata only)")
		groupcommit  = flag.Bool("groupcommit", false, "enable group commit: batches of up to 8, held open only while other writers are open, for 200µs at most (Go's netpoller makes that ≥ 1ms in an idle process)")
		cacheBytes   = flag.String("cache", "", "read-cache capacity above the store (empty = no cache)")
		maxInflight  = flag.Int("maxinflight", server.DefaultMaxInFlight, "admission: max concurrent store operations")
		maxQueue     = flag.Int("maxqueue", 2*server.DefaultMaxInFlight, "admission: max queued operations beyond the in-flight limit")
		queueTimeout = flag.Duration("queuetimeout", time.Second, "admission: max wall time an operation may queue (0 = wait forever)")
		reqTimeout   = flag.Duration("reqtimeout", 30*time.Second, "per-request deadline (0 = none)")
	)
	flag.Parse()
	if err := run(*addr, *backend, *shards, *capacity, *mode, *groupcommit, *cacheBytes, server.Config{
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *reqTimeout,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "fragserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, backend string, shards int, capacity, mode string, groupcommit bool, cacheBytes string, cfg server.Config) error {
	spec, err := stackSpec(backend, shards, capacity, mode, groupcommit, cacheBytes)
	if err != nil {
		return err
	}
	store, err := stack.Build(vclock.New(), spec)
	if err != nil {
		return err
	}
	srv, err := server.New(store, cfg)
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fragserve: serving %s on %s\n", spec, addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills hard
	fmt.Fprintln(os.Stderr, "fragserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// stackSpec maps the flags onto the served stack's Spec.
func stackSpec(backend string, shards int, capacity, mode string, groupcommit bool, cacheBytes string) (stack.Spec, error) {
	spec := stack.Spec{Backends: []string{backend}}
	var err error
	if spec.Capacity, err = units.ParseBytes(capacity); err != nil {
		return spec, fmt.Errorf("bad -capacity: %w", err)
	}
	if shards > 1 {
		spec.Shards = shards
	}
	switch mode {
	case "data":
		spec.Mode = disk.DataMode
	case "meta":
	default:
		return spec, fmt.Errorf("%w: bad -mode %q (want data or meta)", blob.ErrBadOption, mode)
	}
	if groupcommit {
		spec.GroupCommitBatch, spec.GroupCommitDelay = 8, 200*time.Microsecond
	}
	if cacheBytes != "" {
		if spec.CacheBytes, err = units.ParseBytes(cacheBytes); err != nil {
			return spec, fmt.Errorf("bad -cache: %w", err)
		}
	}
	return spec, nil
}

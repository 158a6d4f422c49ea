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
//	fragserve -pprof 127.0.0.1:6060
//
// The front door is server.Server's own HTTP/1.1 loop (Serve), not
// net/http's server: one goroutine per connection, which parses each
// request head and runs its handler. The server holds no store handle
// between requests, so there is nothing to reap or release: the process runs
// until SIGINT/SIGTERM, then Server.Shutdown closes the listener and the
// idle connections, lets in-flight requests finish, and the exit code is
// 0.
//
// The server always records, into a wall-clock registry of its own:
// /metrics answers with its "live" phase and /report with a run report
// whose "serve" experiment holds it. The phase carries a serve.<op>
// wall-time histogram per store-touching route (get, head, put, delete,
// keys, stats, layout) that has succeeded, a serve.<op>.err.<name>
// counter per failure sentinel, the admission.shed and
// admission.timeout counters and the admission.inflight gauge.
//
// In data mode the heap is almost all retained payload, so fragserve
// runs Go's collector at a GC percent of 50 (gcPercent), not the default
// 100; GOGC in the environment overrides it, as for any Go program, and
// the setting is the same in meta mode. A PUT holds memory for the bytes
// that have arrived, not for its Content-Length: a version's buffer
// starts at twice the body's first 256 KB append (at most the declared
// size) and doubles from there, so a body of up to 512 KB fills one
// buffer and a client that declares gigabytes and sends a byte holds
// two.
//
// -pprof ADDR serves net/http/pprof on a listener of its own (off by
// default), so the shipped binary can be profiled as it runs:
//
//	go tool pprof -top http://127.0.0.1:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
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
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()
	setGCPercent()
	if err := run(*addr, *pprofAddr, *backend, *shards, *capacity, *mode, *groupcommit, *cacheBytes, server.Config{
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *reqTimeout,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "fragserve: %v\n", err)
		os.Exit(1)
	}
}

// gcPercent is the collector's headroom over the live heap. A data-mode
// server's heap is almost all retained payload, one pointer-free buffer
// per committed version, and every replace turns the old one into
// garbage: at Go's default of 100 the heap grows to twice the payload
// between collections, and the process spends its time faulting in
// fresh pages. Pointer-free spans cost the collector next to nothing to
// mark, so a collection is cheap. 50 measured lower peak RSS and CPU
// per op than 100 on served_large_payload; 25 saved more memory, but
// its write tail rose with the extra collections.
const gcPercent = 50

// setGCPercent sets the collector's headroom to gcPercent unless GOGC is
// set, which then decides as it does for any Go program. main calls it,
// not run, so tests that call run keep their own setting.
func setGCPercent() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
}

func run(addr, pprofAddr, backend string, shards int, capacity, mode string, groupcommit bool, cacheBytes string, cfg server.Config) error {
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

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		pl, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		defer pl.Close()
		go http.Serve(pl, nil) // net/http/pprof registers on http.DefaultServeMux
		fmt.Fprintf(os.Stderr, "fragserve: pprof on %s\n", pl.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
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
	if err := srv.Shutdown(shutdownCtx); err != nil {
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

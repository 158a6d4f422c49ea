package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestSIGTERMShutsDownCleanly: run serves the store and, with -pprof,
// the profiler on a listener of its own, and records with no setting:
// after one PUT and one GET, /metrics holds serve.put and serve.get in
// wall time. SIGTERM then goes through Server.Shutdown and run returns
// nil, which is the exit code 0 a benchmark's stop requires, leaving no
// goroutine behind (leakcheck).
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	addr, pprofAddr := freeAddr(t), freeAddr(t)
	done := make(chan error, 1)
	go func() { done <- run(addr, pprofAddr, "file", 1, "64M", "meta", false, "", server.Config{}) }()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(url string) int {
		resp, err := hc.Get(url)
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Serve answers only once run has registered for the signal.
	for i := 0; get("http://"+addr+"/healthz") != http.StatusOK; i++ {
		if i == 500 {
			t.Fatal("fragserve did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := get("http://" + pprofAddr + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", code)
	}
	req, err := http.NewRequest(http.MethodPut, "http://"+addr+wire.PathBlobs+"k", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	if code := get("http://" + addr + wire.PathBlobs + "k"); code != http.StatusOK {
		t.Fatalf("GET = %d", code)
	}
	if resp, err = hc.Get("http://" + addr + wire.PathMetrics); err != nil {
		t.Fatal(err)
	}
	var live obs.PhaseReport
	err = json.NewDecoder(resp.Body).Decode(&live)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if live.TimeUnit != obs.UnitWall {
		t.Errorf("/metrics time_unit = %q, want %q", live.TimeUnit, obs.UnitWall)
	}
	for _, name := range []string{"serve.put", "serve.get"} {
		if h := live.Histograms[name]; h == nil || h.Count != 1 {
			t.Errorf("/metrics %s = %+v, want count 1", name, h)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// keepGCPercent restores the collector's headroom when t ends.
func keepGCPercent(t *testing.T) {
	prev := debug.SetGCPercent(100)
	debug.SetGCPercent(prev)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// TestGCPercentYieldsToGOGC: setGCPercent sets gcPercent when GOGC is
// unset or empty (the runtime's default) and leaves any GOGC alone.
func TestGCPercentYieldsToGOGC(t *testing.T) {
	keepGCPercent(t)
	for _, c := range []struct {
		gogc string
		want int
	}{{"", gcPercent}, {"100", 77}, {"off", 77}, {"25", 77}} {
		t.Setenv("GOGC", c.gogc)
		debug.SetGCPercent(77)
		setGCPercent()
		if got := debug.SetGCPercent(77); got != c.want {
			t.Errorf("GOGC=%q: GC percent %d, want %d", c.gogc, got, c.want)
		}
	}
}

// TestGCHeadroomFollowsPayload churns served_large_payload's stack (4
// data-mode shards of 128 MB, a 32 MB cache, group commit) under
// fragserve's collector setting: 64 objects of 256 KB, each replaced 5
// times. Every replace turns a version into garbage, so the heap goal —
// the heap size at which the next collection finishes — is what the
// process grows to. It must stay under 1.9 times the live payload: at
// 50 it reads about 1.6, and at Go's default of 100 it cannot read below
// 2, as the goal is at least twice the heap the last collection found
// live and the payload is live. A server waits on the network between
// bodies; the pause after each replace does the same, so a concurrent
// mark finishes before the next body and the goal measures the
// headroom, not the floating garbage of a loop racing the marker.
func TestGCHeadroomFollowsPayload(t *testing.T) {
	keepGCPercent(t)
	t.Setenv("GOGC", "")
	setGCPercent()
	spec, err := stackSpec("file", 4, "128M", "data", true, "32M")
	if err != nil {
		t.Fatal(err)
	}
	store, err := stack.Build(vclock.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	const objects, size, rounds = 64, 256 * units.KB, 5
	data := bytes.Repeat([]byte{1}, int(size))
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	runtime.GC()
	var peak uint64
	for round := range rounds + 1 {
		for i := range objects {
			if err := blob.Replace(context.Background(), store, fmt.Sprint("k", i), size, data); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond)
			if metrics.Read(goal); round > 0 {
				peak = max(peak, goal[0].Value.Uint64())
			}
		}
	}
	if ratio := float64(peak) / float64(objects*size); ratio > 1.9 {
		t.Errorf("heap goal peaked at %.2f times the live payload, want at most 1.9", ratio)
	}
}

// TestTruncatedPutReservesWhatArrived: a PUT that declares 1500 MB,
// sends one byte and half-closes reserves what arrived, not what it
// declared. fragserve's default stack (one 4 GB data-mode volume) once
// allocated the declared size, capped at the volume's capacity, for the
// first byte of any body.
func TestTruncatedPutReservesWhatArrived(t *testing.T) {
	spec, err := stackSpec("file", 1, "4G", "data", false, "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := stack.Build(vclock.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(store, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		<-served
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	head := fmt.Sprintf("PUT /v1/blobs/k HTTP/1.1\r\nHost: fragserve\r\nContent-Length: %d\r\n\r\nx", 1500*units.MB)
	if _, err := io.WriteString(c, head); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server answers the truncated body and closes the connection.
	if _, err := io.ReadAll(c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > 16*units.MB {
		t.Errorf("a one-byte PUT declaring 1500 MB allocated %d MB", grew/units.MB)
	}
	if _, err := store.Stat(context.Background(), "k"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Stat after a truncated PUT = %v, want ErrNotFound", err)
	}
}

package main

import (
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/server"
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
// the profiler on a listener of its own; SIGTERM then goes through
// Server.Shutdown and run returns nil, which is the exit code 0 a
// benchmark's stop requires, leaving no goroutine behind (leakcheck).
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

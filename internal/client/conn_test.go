package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// countingListener counts the connections a test server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// wireServer is a served data-mode file store behind a counting listener,
// with one dialed client.
type wireServer struct {
	ts   *httptest.Server
	ln   *countingListener
	open atomic.Int64 // server-side connections neither closed nor hijacked
	c    *client.Store
}

// newWireServer serves inner; wrap, when not nil, wraps the server's
// handler to misbehave on purpose.
func newWireServer(t *testing.T, inner blob.Store, wrap func(http.Handler) http.Handler) *wireServer {
	t.Helper()
	srv, err := server.New(inner, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	w := &wireServer{ts: httptest.NewUnstartedServer(h)}
	w.ln = &countingListener{Listener: w.ts.Listener}
	w.ts.Listener = w.ln
	w.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			w.open.Add(1)
		case http.StateClosed, http.StateHijacked:
			w.open.Add(-1)
		}
	}
	w.ts.Start()
	if w.c, err = client.Dial(w.ts.URL); err != nil {
		w.ts.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.c.Close()
		w.ts.Close()
	})
	return w
}

func dataInner() blob.Store {
	return fileInner(blob.WithCapacity(16<<20), blob.WithDiskMode(disk.DataMode))
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 200 {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmStoreHoldsOneConnection: a Store that issues one request at a
// time holds one connection for all of them, and between requests no
// goroutine is parked on it — each request runs on its caller's
// goroutine, where a Transport runs a read loop and a write loop per
// connection.
func TestWarmStoreHoldsOneConnection(t *testing.T) {
	ctx := context.Background()
	w := newWireServer(t, dataInner(), nil)
	c := w.c
	payload := bytes.Repeat([]byte("x"), 4096)
	stacks := make([]byte, 1<<20)
	ops := 0
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops++
		if s := string(stacks[:runtime.Stack(stacks, true)]); strings.Contains(s, "net/http.(*persistConn)") {
			t.Fatalf("after %s a goroutine is parked on a client connection:\n%s", name, s)
		}
	}
	for i := 0; ops < 120; i++ {
		key := fmt.Sprintf("k%d", i%4)
		step("Upload", c.Upload(ctx, key, int64(len(payload)), payload, true))
		_, _, err := c.Fetch(ctx, key)
		step("Fetch", err)
		_, err = c.FetchAt(ctx, key, 100, 200)
		step("FetchAt", err)
		_, err = c.Stat(ctx, key)
		step("Stat", err)
		r, err := c.Open(ctx, key)
		if err == nil {
			_, err = r.ReadAll()
			r.Close()
		}
		step("Open+ReadAll", err)
		step("Delete", c.Delete(ctx, key))
	}
	if n := w.ln.accepts.Load(); n != 1 {
		t.Fatalf("%d sequential ops opened %d connections, want 1", ops, n)
	}
}

// TestIdleConnectionDroppedByServer: after the server closes every
// connection, the next request of each method succeeds — on a fresh
// connection, since the idle one is found closed before anything is
// written to it.
func TestIdleConnectionDroppedByServer(t *testing.T) {
	ctx := context.Background()
	w := newWireServer(t, dataInner(), nil)
	c := w.c
	if err := c.Upload(ctx, "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		method string
		do     func() error
	}{
		{"GET", func() error { _, _, err := c.Fetch(ctx, "k"); return err }},
		{"HEAD", func() error { _, err := c.Stat(ctx, "k"); return err }},
		{"PUT", func() error { return c.Upload(ctx, "k", 3, []byte("xyz"), true) }},
		{"DELETE", func() error { return c.Delete(ctx, "k") }},
	} {
		w.ts.CloseClientConnections()
		if err := op.do(); err != nil {
			t.Fatalf("%s after the server dropped the idle connection: %v", op.method, err)
		}
	}
}

// replaceCounter counts the PUTs the server applies.
type replaceCounter struct {
	blob.Store
	n atomic.Int64
}

func (s *replaceCounter) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	s.n.Add(1)
	return s.Store.Replace(ctx, key, size)
}

// TestWrittenPutIsNotRetried: a PUT the server read and applied, whose
// connection then died before the answer, fails instead of being sent
// again on a fresh connection, which would apply it twice.
func TestWrittenPutIsNotRetried(t *testing.T) {
	ctx := context.Background()
	inner := &replaceCounter{Store: dataInner()}
	var drop atomic.Bool
	w := newWireServer(t, inner, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPut || !drop.CompareAndSwap(true, false) {
				h.ServeHTTP(rw, r)
				return
			}
			h.ServeHTTP(httptest.NewRecorder(), r) // applied; the answer is lost
			if nc, _, err := rw.(http.Hijacker).Hijack(); err == nil {
				nc.Close()
			}
		})
	})
	c := w.c
	payload := bytes.Repeat([]byte("p"), 8192)
	if err := c.Upload(ctx, "k", int64(len(payload)), payload, true); err != nil {
		t.Fatal(err)
	}
	drop.Store(true)
	if err := c.Upload(ctx, "k", int64(len(payload)), payload, true); err == nil {
		t.Fatal("PUT whose connection died before the answer succeeded")
	}
	if n := inner.n.Load(); n != 2 {
		t.Fatalf("server applied %d PUTs, want 2: the dropped one was retried", n)
	}
	if err := c.Upload(ctx, "k", int64(len(payload)), payload, true); err != nil {
		t.Fatalf("PUT after a dropped one: %v", err)
	}
	if n := w.ln.accepts.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2", n)
	}
}

// TestCancelWhileHandlerBlocks: a context canceled while the server
// holds the request ends the call promptly with context.Canceled, and the
// Store's next request succeeds.
func TestCancelWhileHandlerBlocks(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	w := newWireServer(t, dataInner(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/slow") {
				once.Do(func() { close(entered) })
				<-r.Context().Done() // the client closed the connection
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	c := w.c
	if err := c.Upload(context.Background(), "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	canceledAt := make(chan time.Time, 1)
	go func() {
		<-entered
		canceledAt <- time.Now()
		cancel()
	}()
	_, _, err := c.Fetch(ctx, "slow")
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fetch canceled in the handler = %v, want context.Canceled", err)
	}
	if d := returned.Sub(<-canceledAt); d > 100*time.Millisecond {
		t.Fatalf("fetch returned %v after its context was canceled, want < 100ms", d)
	}
	if _, err := c.Stat(context.Background(), "k"); err != nil {
		t.Fatalf("request after a canceled one: %v", err)
	}
}

// TestShortBodyFailsAndRedials: a response that declares more
// Content-Length than it sends fails the read with io.ErrUnexpectedEOF —
// never a short buffer — and the next request dials a new connection.
func TestShortBodyFailsAndRedials(t *testing.T) {
	ctx := context.Background()
	w := newWireServer(t, dataInner(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/short") {
				h.ServeHTTP(rw, r)
				return
			}
			nc, _, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\nX-Blob-Size: 100\r\n\r\n0123456789")
			nc.Close()
		})
	})
	c := w.c
	if err := c.Upload(ctx, "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	if _, data, err := c.Fetch(ctx, "short"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("fetch of a short body = %d bytes, %v; want io.ErrUnexpectedEOF", len(data), err)
	}
	if _, err := c.Stat(ctx, "k"); err != nil {
		t.Fatalf("request after a short body: %v", err)
	}
	if n := w.ln.accepts.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2: the short body's connection was kept", n)
	}
}

// noSize is a ResponseWriter that drops X-Blob-Size from its response.
type noSize struct{ http.ResponseWriter }

func (w noSize) WriteHeader(code int) {
	w.Header().Del(wire.HeaderSize)
	w.ResponseWriter.WriteHeader(code)
}

func (w noSize) Write(p []byte) (int, error) {
	w.Header().Del(wire.HeaderSize)
	return w.ResponseWriter.Write(p)
}

// TestReadWantsSizeHeader: a read or stat answered without X-Blob-Size
// fails with ErrBadResponse. A GET once read the missing size as 0, so
// Fetch reported an empty object and FetchAt a false ErrOutOfRange.
func TestReadWantsSizeHeader(t *testing.T) {
	ctx := context.Background()
	c := newWireServer(t, dataInner(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) { h.ServeHTTP(noSize{rw}, r) })
	}).c
	if err := c.Upload(ctx, "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	if size, _, err := c.Fetch(ctx, "k"); !errors.Is(err, client.ErrBadResponse) {
		t.Fatalf("Fetch without a size header = %d, %v; want ErrBadResponse", size, err)
	}
	if _, err := c.FetchAt(ctx, "k", 0, 2); !errors.Is(err, client.ErrBadResponse) {
		t.Fatalf("FetchAt without a size header = %v, want ErrBadResponse", err)
	}
	if _, err := c.Stat(ctx, "k"); !errors.Is(err, client.ErrBadResponse) {
		t.Fatalf("Stat without a size header = %v, want ErrBadResponse", err)
	}
}

// TestStatsBodyIsBounded: the client reads at most 64 KB of a
// /v1/stats body. One over that, however long, fails with
// ErrBadResponse, so a misbehaving server cannot make Dial or Usage read
// without end; a padded body under the bound is read.
func TestStatsBodyIsBounded(t *testing.T) {
	var pad atomic.Int64
	w := newWireServer(t, dataInner(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if n := pad.Load(); n > 0 && r.URL.Path == wire.PathStats {
				fmt.Fprintf(rw, `{"name":"padded","object_count":1,"pad":"%s"}`, strings.Repeat("x", int(n)))
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	pad.Store(1 << 10)
	c, err := client.Dial(w.ts.URL)
	if err != nil {
		t.Fatalf("Dial answered with a 1 KB pad: %v", err)
	}
	if c.Name() != "padded" || c.Usage().Objects != 1 {
		t.Fatalf("padded stats read as name %q, %+v", c.Name(), c.Usage())
	}
	c.Close()
	pad.Store(1 << 20)
	if _, err := client.Dial(w.ts.URL); !errors.Is(err, client.ErrBadResponse) {
		t.Fatalf("Dial answered with a 1 MiB stats body = %v, want ErrBadResponse", err)
	}
	if u := w.c.Usage(); u != (blob.Usage{}) {
		t.Fatalf("Usage over a 1 MiB stats body = %+v, want zeros", u)
	}
}

// TestCloseLeavesNoConnection: Close closes every idle connection; the
// Store still works afterwards and keeps none.
func TestCloseLeavesNoConnection(t *testing.T) {
	ctx := context.Background()
	w := newWireServer(t, dataInner(), nil)
	c := w.c
	if err := c.Upload(ctx, "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Stat(ctx, "k"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c.Close()
	waitFor(t, "the server to see every connection closed", func() bool { return w.open.Load() == 0 })
	if _, err := c.Stat(ctx, "k"); err != nil {
		t.Fatalf("stat after Close: %v", err)
	}
	waitFor(t, "the connection of a request after Close to close", func() bool { return w.open.Load() == 0 })
}

// TestDialWantsHTTP: the wire is plain HTTP/1.1 and its request paths
// are its own, so a base URL that is not http://host[:port], with at
// most a "/" after it, is refused without a connection attempt: a path,
// query or fragment would once have been pasted in front of every
// request path.
func TestDialWantsHTTP(t *testing.T) {
	for _, u := range []string{
		"https://127.0.0.1:1", "127.0.0.1:1", "unix:///tmp/sock", "http://",
		"http://127.0.0.1:1/v1", "http://127.0.0.1:1/?x=1", "http://127.0.0.1:1?", "http://127.0.0.1:1/#top",
		"http://user:pw@127.0.0.1:1",
	} {
		if _, err := client.Dial(u); !errors.Is(err, blob.ErrBadOption) {
			t.Fatalf("Dial(%q) = %v, want ErrBadOption", u, err)
		}
	}
	w := newWireServer(t, dataInner(), nil)
	c, err := client.Dial(w.ts.URL + "/")
	if err != nil {
		t.Fatalf("Dial with a trailing slash: %v", err)
	}
	c.Close()
}

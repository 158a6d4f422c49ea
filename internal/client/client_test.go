package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// built returns a factory of the stack spec describes, built through
// stack.Build with the caller's options.
func built(spec stack.Spec) conformance.Factory {
	return func(opts ...blob.Option) blob.Store {
		spec.Options = opts
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// The stacks the tests serve: both single-volume backends and a 4-shard
// mixed fleet (2 filesystem + 2 database children on one clock).
var (
	fileInner       = built(stack.Spec{Backends: []string{stack.File}})
	dbInner         = built(stack.Spec{Backends: []string{stack.DB}})
	mixedShardInner = built(stack.Spec{Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4})
)

// serveOn runs srv.Serve, fragserve's front door, on a loopback
// listener and returns its base URL. Cleanup shuts it down and waits for
// Serve to return.
func serveOn(tb testing.TB, srv *server.Server) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		srv.Shutdown(context.Background())
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			tb.Errorf("Serve = %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// serve wraps an inner-store factory so that every store a test asks
// for is served by fragserve's front door
// (server.Serve) on a live TCP listener and accessed through a dialed
// client. Each store gets its own server and listener; all of them are
// torn down via t.Cleanup, and leakcheck verifies nothing survives.
func serve(t *testing.T, mk conformance.Factory) conformance.Factory {
	t.Helper()
	return func(opts ...blob.Option) blob.Store {
		return dialServed(t, mk(opts...), server.Config{})
	}
}

// dialServed serves inner through server.Serve and dials it. It panics
// rather than fail t, because a factory may be called from subtests.
func dialServed(t *testing.T, inner blob.Store, cfg server.Config) *client.Store {
	t.Helper()
	srv, err := server.New(inner, cfg)
	if err != nil {
		panic(err)
	}
	c, err := client.Dial(serveOn(t, srv))
	if err != nil {
		panic(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientClockRatchet pins the virtual-time bridge: the client's
// clock mirrors the served store's clock after each response, and never
// runs backwards.
func TestClientClockRatchet(t *testing.T) {
	ctx := context.Background()
	inner := fileInner(blob.WithCapacity(1<<20), blob.WithDiskMode(disk.DataMode))
	mk := serve(t, func(opts ...blob.Option) blob.Store { return inner })
	c := mk().(*client.Store)

	if got := c.Clock().Now(); got != inner.Clock().Now() {
		t.Fatalf("clock after dial = %d, server at %d", got, inner.Clock().Now())
	}
	if err := blob.Put(ctx, c, "k", 256<<10, make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Get(ctx, c, "k"); err != nil {
		t.Fatal(err)
	}
	after := c.Clock().Now()
	if after == 0 {
		t.Fatal("client clock did not advance with served ops")
	}
	if after != inner.Clock().Now() {
		t.Fatalf("client clock %d != server clock %d", after, inner.Clock().Now())
	}
	// A ranged read must cost less virtual time than the full read —
	// the paper's core asymmetry, observed from the far side of the wire.
	r, err := c.Open(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	t0 := c.Clock().Now()
	if _, err := r.ReadAt(0, 4096); err != nil {
		t.Fatal(err)
	}
	rangedCost := c.Clock().Now() - t0
	t1 := c.Clock().Now()
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	fullCost := c.Clock().Now() - t1
	if rangedCost <= 0 || fullCost <= rangedCost {
		t.Fatalf("ranged read cost %dns, full read cost %dns; want 0 < ranged < full", rangedCost, fullCost)
	}
}

// TestClientOneShotPaths covers the loadgen fast paths (Fetch, FetchAt,
// Upload).
func TestClientOneShotPaths(t *testing.T) {
	ctx := context.Background()
	mk := serve(t, fileInner)
	c := mk(blob.WithCapacity(1<<20), blob.WithDiskMode(disk.DataMode)).(*client.Store)

	payload := []byte("hello, network blob service")
	if err := c.Upload(ctx, "one", int64(len(payload)), payload, false); err != nil {
		t.Fatal(err)
	}
	size, data, err := c.Fetch(ctx, "one")
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) || string(data) != string(payload) {
		t.Fatalf("fetch = (%d, %q), want (%d, %q)", size, data, len(payload), payload)
	}
	part, err := c.FetchAt(ctx, "one", 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(part) != "network" {
		t.Fatalf("fetchAt = %q, want %q", part, "network")
	}
	// A range that ends past the object is out of range, as a local
	// ReadAt's is: what the server sends for [20, +100) is its clamp to
	// the last 7 bytes, and a range whose end overflows int64 would reach
	// it as a malformed Range it ignores, answering with every byte.
	for _, r := range [][2]int64{{20, 100}, {10, math.MaxInt64}} {
		if got, err := c.FetchAt(ctx, "one", r[0], r[1]); !errors.Is(err, blob.ErrOutOfRange) {
			t.Fatalf("FetchAt(%d, %d) = %q, %v; want ErrOutOfRange", r[0], r[1], got, err)
		}
	}
	// Create mode refuses to clobber; replace mode is the safe overwrite.
	if err := c.Upload(ctx, "one", 3, []byte("new"), false); !errors.Is(err, blob.ErrAlreadyExists) {
		t.Fatalf("create-mode upload over live key = %v, want ErrAlreadyExists", err)
	}
	if err := c.Upload(ctx, "one", 3, []byte("new"), true); err != nil {
		t.Fatal(err)
	}
	if _, data, err := c.Fetch(ctx, "one"); err != nil || string(data) != "new" {
		t.Fatalf("after replace: (%q, %v)", data, err)
	}
	if _, _, err := c.Fetch(ctx, "absent"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("fetch of absent key = %v, want ErrNotFound", err)
	}
	if _, err := c.FetchAt(ctx, "one", 5, 1); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("out-of-range fetchAt = %v, want ErrOutOfRange", err)
	}
}

// TestZeroLengthRangeReadsNothing: an empty range is a read of nothing,
// as a local ReadAt(off, 0) is — not the whole object (FetchAt once sent
// "bytes=7-6", which a server ignores as malformed and answers with every
// byte), and not ErrOutOfRange at the end of the object. Off the end it
// is ErrOutOfRange, and a pinned reader's empty read still fails
// ErrNotFound once its version is gone.
func TestZeroLengthRangeReadsNothing(t *testing.T) {
	ctx := context.Background()
	c := serve(t, fileInner)(blob.WithCapacity(1<<20), blob.WithDiskMode(disk.DataMode)).(*client.Store)
	payload := []byte("hello, network blob service")
	size := int64(len(payload))
	if err := c.Upload(ctx, "k", size, payload, false); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, off := range []int64{0, 7, size} {
		if got, err := c.FetchAt(ctx, "k", off, 0); err != nil || len(got) != 0 {
			t.Fatalf("FetchAt(%d, 0) = %d bytes, %v; want none", off, len(got), err)
		}
		if got, err := r.ReadAt(off, 0); err != nil || len(got) != 0 {
			t.Fatalf("ReadAt(%d, 0) = %d bytes, %v; want none", off, len(got), err)
		}
	}
	if _, err := c.FetchAt(ctx, "k", size+1, 0); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("FetchAt past the end = %v, want ErrOutOfRange", err)
	}
	if _, err := c.FetchAt(ctx, "absent", 0, 0); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("FetchAt of an absent key = %v, want ErrNotFound", err)
	}
	if err := c.Upload(ctx, "k", size, payload, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(0, 0); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("pinned ReadAt(0, 0) across a replace = %v, want ErrNotFound", err)
	}
}

// TestRemoteHandlesHoldNoServerState: two clients of one server. A
// remote handle is held by its client alone, so an abandoned writer
// locks nothing for anyone else, a reader's pin is checked at each read,
// and writer exclusivity across clients is the PUT's — a Create that
// found its key free loses to another client's create at Commit and
// stays abortable. Between requests no goroutine runs server code.
func TestRemoteHandlesHoldNoServerState(t *testing.T) {
	ctx := context.Background()
	inner := fileInner(blob.WithCapacity(64<<20), blob.WithDiskMode(disk.DataMode))
	mk := serve(t, func(...blob.Option) blob.Store { return inner })
	a, b := mk().(*client.Store), mk().(*client.Store)
	if err := blob.Put(ctx, a, "k", 4096, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}

	r, err := a.Open(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := a.Replace(ctx, "k", 4096); err != nil { // abandoned
		t.Fatal(err)
	}
	if _, err := a.Replace(ctx, "k", 4096); !errors.Is(err, blob.ErrBusy) {
		t.Fatalf("second writer on one client = %v, want ErrBusy", err)
	}
	if err := blob.Replace(ctx, b, "k", 4096, bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatalf("replace past another client's abandoned writer: %v", err)
	}
	if _, err := r.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("reader across another client's replace = %v, want ErrNotFound", err)
	}

	w, err := a.Create(ctx, "n", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(4096, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := blob.Put(ctx, b, "n", 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, blob.ErrAlreadyExists) {
		t.Fatalf("commit after another client's create = %v, want ErrAlreadyExists", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("abort after a failed commit: %v", err)
	}
	if err := blob.Replace(ctx, a, "n", 4096, nil); err != nil {
		t.Fatalf("key still busy on its client after abort: %v", err)
	}

	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("h%d", i)
		if err := a.Upload(ctx, key, 4096, nil, false); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Open(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Replace(ctx, key, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// With handles open and no request in flight, no goroutine runs
	// server code: no handle reaper, nothing per handle. The server's
	// accept loop waits in Serve and each idle connection's goroutine in
	// conn.next. A handler may still be unwinding from the last response,
	// so the check retries briefly.
	for i := 0; ; i++ {
		buf := make([]byte, 1<<20)
		var running []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "repro/internal/server.") &&
				!strings.Contains(g, "server.(*Server).Serve(") && !strings.Contains(g, "server.(*conn).next(") {
				running = append(running, g)
			}
		}
		if len(running) == 0 {
			break
		}
		if i == 100 {
			t.Fatalf("server code runs between requests:\n%s", strings.Join(running, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteReaderCostsWhatALocalOneDoes: two identical stores, one
// read in-process and one through the server, charge their virtual
// clocks the same at every step of a reader — the open once, at Open,
// and each read, empty ones included, only what the read costs.
func TestRemoteReaderCostsWhatALocalOneDoes(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []struct {
		name string
		mk   conformance.Factory
	}{{"Filesystem", fileInner}, {"Database", dbInner}} {
		t.Run(backend.name, func(t *testing.T) {
			local, served := backend.mk(blob.WithCapacity(16<<20)), backend.mk(blob.WithCapacity(16<<20))
			for _, s := range []blob.Store{local, served} {
				for _, key := range []string{"a", "k", "z"} {
					if err := blob.Put(ctx, s, key, 256<<10, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			remote := serve(t, func(...blob.Option) blob.Store { return served })()
			costs := func(s blob.Store, clock *vclock.Clock) []int64 {
				var out []int64
				step := func(f func() error) {
					t0 := clock.Now()
					if err := f(); err != nil {
						t.Fatal(err)
					}
					out = append(out, clock.Now()-t0)
				}
				var r blob.Reader
				step(func() (err error) { r, err = s.Open(ctx, "k"); return err })
				step(func() error { _, err := r.ReadAt(4096, 8192); return err })
				step(func() error { _, err := r.ReadAll(); return err })
				step(func() error { _, err := r.ReadAt(100, 0); return err })
				step(r.Close)
				return out
			}
			want := costs(local, local.Clock())
			if got := costs(remote, served.Clock()); !slices.Equal(got, want) {
				t.Fatalf("virtual ns per step (open, ranged, whole, empty, close): remote %v, local %v", got, want)
			}
			if want[0] == 0 || want[2] == 0 {
				t.Fatalf("local costs %v: open and read must cost something for the comparison to mean anything", want)
			}
		})
	}
}

// TestClientAccountingSurface covers the no-context accounting methods
// and the layout bridge used by fragmentation analysis.
func TestClientAccountingSurface(t *testing.T) {
	ctx := context.Background()
	inner := fileInner(blob.WithCapacity(1 << 20))
	mk := serve(t, func(opts ...blob.Option) blob.Store { return inner })
	c := mk().(*client.Store)

	for _, k := range []string{"a", "b", "c"} {
		if err := blob.Put(ctx, c, k, 1024, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Usage(), inner.Usage(); got != want {
		t.Fatalf("Usage = %+v, want %+v", got, want)
	}
	if got, want := c.ObjectCount(), inner.ObjectCount(); got != want {
		t.Fatalf("ObjectCount = %d, want %d", got, want)
	}
	if got, want := c.LiveBytes(), inner.LiveBytes(); got != want {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	keys := c.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys = %v, want 3 keys", keys)
	}
	if c.Name() != inner.Name() {
		t.Fatalf("Name = %q, want %q", c.Name(), inner.Name())
	}

	type layout struct {
		bytes int64
		runs  int
	}
	local := map[string]layout{}
	inner.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
		local[key] = layout{bytes, len(runs)}
	})
	remote := map[string]layout{}
	c.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
		remote[key] = layout{bytes, len(runs)}
	})
	if len(remote) != len(local) {
		t.Fatalf("layout objects: remote %d, local %d", len(remote), len(local))
	}
	for k, l := range local {
		if remote[k] != l {
			t.Fatalf("layout for %q: remote %+v, local %+v", k, remote[k], l)
		}
	}
	localTags := map[string]uint32{}
	inner.EachObjectTag(func(key string, tag uint32) { localTags[key] = tag })
	remoteTags := map[string]uint32{}
	c.EachObjectTag(func(key string, tag uint32) { remoteTags[key] = tag })
	for k, tag := range localTags {
		if remoteTags[k] != tag {
			t.Fatalf("tag for %q: remote %d, local %d", k, remoteTags[k], tag)
		}
	}
}

// TestLoneCommitDoesNotWait: one client, one PUT, one commit — the
// served path the group-commit ceiling used to tax. Through the HTTP
// front-end, shard and cache, by the one-shot Upload and by a streaming
// writer's Create/Append/Commit, a lone writer is a batch of one that
// never sleeps on the batch timer.
func TestLoneCommitDoesNotWait(t *testing.T) {
	ctx := context.Background()
	var stack *cache.Store
	c := serve(t, func(opts ...blob.Option) blob.Store {
		var err error
		if stack, err = cache.New(mixedShardInner(opts...), cache.WithCapacity(8*units.MB)); err != nil {
			panic(err)
		}
		return stack
	})(blob.WithCapacity(64*units.MB), blob.WithGroupCommit(8, conformance.GroupCommitCeiling)).(*client.Store)
	for _, key := range []string{"a", "b", "c"} {
		conformance.LoneCommitDoesNotWait(t, stack, func() error {
			return c.Upload(ctx, key, 64*units.KB, nil, false)
		})
		conformance.LoneCommitDoesNotWait(t, stack, conformance.PutKey(c, key+"-stream"))
	}
}

// TestUploadBufferIsCallersAfterReturn pins the no-copy request body: the
// caller's slice is sent as it is, and is the caller's again once the
// call returns — also when the server answers before it has read the
// body (create of an existing key). The body is written on the caller's
// goroutine before the response is read; the server drains the body it
// refused, so the answer's ErrAlreadyExists arrives one round trip later
// on a connection that stays usable. The caller scribbles over its buffer
// right after every return; under -race anything still reading it is a
// reported data race.
func TestUploadBufferIsCallersAfterReturn(t *testing.T) {
	ctx := context.Background()
	c := serve(t, fileInner)(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.DataMode)).(*client.Store)
	const size, mb = 4 << 20, 1 << 20 // far more than the socket buffers hold
	buf := bytes.Repeat([]byte{1}, size)
	if err := c.Upload(ctx, "k", size, buf, false); err != nil {
		t.Fatal(err)
	}
	for round := byte(2); round < 10; round++ {
		for i := range buf {
			buf[i] = round
		}
		if err := c.Upload(ctx, "k", size, buf, false); !errors.Is(err, blob.ErrAlreadyExists) {
			t.Fatalf("create of an existing key = %v, want ErrAlreadyExists", err)
		}
	}
	// A streaming writer copies each append, so the buffer is the
	// caller's again as soon as Append returns.
	w, err := c.Replace(ctx, "k", size)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size; off += mb {
		for i := range buf[:mb] {
			buf[i] = byte(off/mb) + 20
		}
		if err := w.Append(mb, buf[:mb]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_, got, err := c.Fetch(ctx, "k")
	if err != nil || len(got) != size {
		t.Fatalf("fetch: %d bytes, err %v", len(got), err)
	}
	for off := 0; off < size; off += mb {
		if want := bytes.Repeat([]byte{byte(off/mb) + 20}, mb); !bytes.Equal(got[off:off+mb], want) {
			t.Fatalf("append %d stored bytes the caller wrote after it returned", off/mb)
		}
	}
}

// gatedStat holds every Stat until gate closes, announcing it on
// entered: a request that keeps the server's only admission slot.
type gatedStat struct {
	blob.Store
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedStat) Stat(ctx context.Context, key string) (blob.Info, error) {
	select {
	case <-g.gate:
	default:
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Store.Stat(ctx, key)
}

// TestRefusedPutCostsARoundTrip: a 4 MB PUT the server refuses without
// reading its body — a create of an existing key, a shed by a server
// whose one admission slot is taken — returns its typed error within
// 100 ms, and the Store's next request succeeds. The client writes the
// whole body before it reads the answer; Serve drains what the handler
// left unread and keeps the connection, where net/http's server lingered
// about half a second on it and then reset the connection.
func TestRefusedPutCostsARoundTrip(t *testing.T) {
	ctx := context.Background()
	const size = 4 << 20
	buf := make([]byte, size)
	inner := fileInner(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.DataMode))
	if err := blob.Put(ctx, inner, "k", size, buf); err != nil {
		t.Fatal(err)
	}
	gated := &gatedStat{Store: inner, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv, err := server.New(gated, server.Config{MaxInFlight: 1, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	url := serveOn(t, srv)
	var c, holder *client.Store
	for _, s := range []**client.Store{&c, &holder} {
		if *s, err = client.Dial(url); err != nil {
			t.Fatal(err)
		}
		defer (*s).Close()
	}
	refused := func(want error) {
		t.Helper()
		start := time.Now()
		err := c.Upload(ctx, "k", size, buf, false)
		if took := time.Since(start); !errors.Is(err, want) || took > 100*time.Millisecond {
			t.Fatalf("refused 4 MB PUT = %v after %v, want %v within 100ms", err, took, want)
		}
	}
	refused(blob.ErrAlreadyExists)
	if err := c.Delete(ctx, "missing"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("next request after a refused create: %v", err)
	}

	held := make(chan error, 1)
	go func() {
		_, err := holder.Stat(ctx, "k")
		held <- err
	}()
	<-gated.entered
	refused(blob.ErrOverloaded)
	close(gated.gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "k"); err != nil {
		t.Fatalf("next request after a refused PUT: %v", err)
	}
}

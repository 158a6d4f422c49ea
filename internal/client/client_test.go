package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

func fileInner(opts ...blob.Option) blob.Store {
	s, err := core.NewFileStore(vclock.New(), opts...)
	if err != nil {
		panic(err)
	}
	return s
}

func dbInner(opts ...blob.Option) blob.Store {
	s, err := core.NewDBStore(vclock.New(), opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// mixedShardInner builds a 4-shard mixed fleet (2 filesystem + 2
// database children on one clock).
func mixedShardInner(opts ...blob.Option) blob.Store {
	clock := vclock.New()
	children := make([]blob.Store, 4)
	for i := range children {
		var err error
		if i%2 == 0 {
			children[i], err = core.NewFileStore(clock, opts...)
		} else {
			children[i], err = core.NewDBStore(clock, opts...)
		}
		if err != nil {
			panic(err)
		}
	}
	s, err := shard.New(children...)
	if err != nil {
		panic(err)
	}
	return s
}

// serve wraps an inner-store factory so that every store the
// conformance suite asks for is served by a real fragserve front-end
// on a live TCP listener and accessed through a dialed client. Each
// store gets its own server and listener; all of them are torn down
// via t.Cleanup, and leakcheck verifies nothing survives.
func serve(t *testing.T, mk conformance.Factory) conformance.Factory {
	t.Helper()
	return func(opts ...blob.Option) blob.Store {
		srv, err := server.New(mk(opts...), server.Config{
			// The suite abandons handles on purpose (version-pinning
			// tests); a long TTL keeps the janitor from racing them.
			SessionTTL: time.Hour,
		})
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(srv)
		c, err := client.Dial(ts.URL)
		if err != nil {
			ts.Close()
			srv.Close()
			panic(err)
		}
		t.Cleanup(func() {
			c.Close()
			ts.Close()
			srv.Close()
		})
		return c
	}
}

// TestClientConformance is the tentpole proof: the remote store passes
// the exact cross-backend contract suite — typed sentinels, version
// pinning, exclusive writers, streaming appends, safe replace, context
// cancellation and deadlines — end to end through a real HTTP listener,
// against both single-volume backends and a 4-shard mixed fleet.
func TestClientConformance(t *testing.T) {
	inners := []struct {
		name string
		mk   conformance.Factory
	}{
		{"Filesystem", fileInner},
		{"Database", dbInner},
		{"Sharded4Mixed", mixedShardInner},
	}
	for _, in := range inners {
		t.Run(in.name, func(t *testing.T) {
			conformance.Run(t, serve(t, in.mk))
		})
	}
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
// Upload) that bypass the session protocol.
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
	if got, want := c.ObjectCount(), inner.ObjectCount(); got != want {
		t.Fatalf("ObjectCount = %d, want %d", got, want)
	}
	if got, want := c.LiveBytes(), inner.LiveBytes(); got != want {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	if got, want := c.CapacityBytes(), inner.CapacityBytes(); got != want {
		t.Fatalf("CapacityBytes = %d, want %d", got, want)
	}
	if got, want := c.FreeBytes(), inner.FreeBytes(); got != want {
		t.Fatalf("FreeBytes = %d, want %d", got, want)
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
// front-end, shard and cache, by the one-shot Upload and by the session
// protocol, a lone writer is a batch of one that never sleeps on the
// batch timer.
func TestLoneCommitDoesNotWait(t *testing.T) {
	ctx := context.Background()
	var stack *cache.Store
	c := serve(t, func(opts ...blob.Option) blob.Store {
		var err error
		if stack, err = cache.New(mixedShardInner(opts...), cache.WithCapacity(8*units.MB)); err != nil {
			panic(err)
		}
		t.Cleanup(func() { _ = blob.CloseStore(stack) })
		return stack
	})(blob.WithCapacity(64*units.MB), blob.WithGroupCommit(8, conformance.GroupCommitCeiling)).(*client.Store)
	for _, key := range []string{"a", "b", "c"} {
		conformance.LoneCommitDoesNotWait(t, stack, func() error {
			return c.Upload(ctx, key, 64*units.KB, nil, false)
		})
		conformance.LoneCommitDoesNotWait(t, stack, conformance.PutKey(c, key+"-session"))
	}
}

// TestUploadBufferIsCallersAfterReturn pins the no-copy request body: the
// caller's slice is sent as it is, and is the caller's again once the
// call returns — also when the server answers before it has read the
// body (create of an existing key) and the transport is still writing.
// The caller scribbles over its buffer right after every return; under
// -race a transport still reading it is a reported data race.
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
	// The session path sends its appends the same way.
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

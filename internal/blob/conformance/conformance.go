// Package conformance is the cross-backend contract suite for the v2
// blob.Store API. Both backends run one table of API-contract tests —
// put/get/replace/delete/stat semantics, typed-error identity, ranged
// reads, streaming writer lifecycle, concurrency, and context
// cancellation — so the filesystem and database implementations can
// never drift apart semantically.
package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
)

// Factory builds a fresh store for one subtest. The suite passes the
// capacity and disk mode each test needs and expects an empty store.
type Factory func(opts ...blob.Option) blob.Store

// Run executes the full contract suite against stores built by mk.
func Run(t *testing.T, mk Factory) {
	tests := []struct {
		name string
		fn   func(*testing.T, Factory)
	}{
		{"RoundTrip", testRoundTrip},
		{"TypedErrors", testTypedErrors},
		{"ReplaceSemantics", testReplaceSemantics},
		{"RangedReads", testRangedReads},
		{"PayloadViewsAreStable", testPayloadViewsAreStable},
		{"ReaderPinnedToVersion", testReaderPinnedToVersion},
		{"WriterLifecycle", testWriterLifecycle},
		{"MixedAppendsRejected", testMixedAppendsRejected},
		{"AbortPreservesOldVersion", testAbortPreservesOldVersion},
		{"NoSpace", testNoSpace},
		{"ContextCancellation", testContextCancellation},
		{"ContextDeadline", testContextDeadline},
		{"ConcurrentReaders", testConcurrentReaders},
		{"ConcurrentWriters", testConcurrentWriters},
		{"ConcurrentMixedChurn", testConcurrentMixedChurn},
		{"HandlesStayWithTheirStore", testHandlesStayWithTheirStore},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, mk) })
	}
}

func payload(n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i%251 + 1)
	}
	return p
}

// testRoundTrip pins the basic put/get/stat/delete contract and the
// store's accounting surface.
func testRoundTrip(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	data := payload(200 * units.KB)

	if err := blob.Put(ctx, s, "a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(data))
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadAll payload mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	//fragvet:ignore poollifecycle the conformance suite deliberately reads after Close to pin the ErrClosed contract
	if _, err := r.ReadAll(); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("read after Close = %v, want ErrClosed", err)
	}

	info, err := s.Stat(ctx, "a")
	if err != nil || info.Size != int64(len(data)) || info.Key != "a" {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if s.ObjectCount() != 1 || s.LiveBytes() != int64(len(data)) {
		t.Fatalf("count=%d live=%d", s.ObjectCount(), s.LiveBytes())
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("Keys = %v", keys)
	}

	if err := s.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if s.ObjectCount() != 0 || s.LiveBytes() != 0 {
		t.Fatalf("count=%d live=%d after delete", s.ObjectCount(), s.LiveBytes())
	}
}

// testTypedErrors pins errors.Is identity for every sentinel the basic
// operations can produce.
func testTypedErrors(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))

	if _, err := s.Open(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Open missing = %v, want ErrNotFound", err)
	}
	if _, err := s.Stat(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Stat missing = %v, want ErrNotFound", err)
	}
	if err := s.Delete(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
	if _, err := s.Create(ctx, "zero", 0); !errors.Is(err, blob.ErrInvalidSize) {
		t.Fatalf("Create size 0 = %v, want ErrInvalidSize", err)
	}

	if err := blob.Put(ctx, s, "a", 256*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "a", 256*units.KB); !errors.Is(err, blob.ErrAlreadyExists) {
		t.Fatalf("Create existing = %v, want ErrAlreadyExists", err)
	}

	// A second uncommitted writer for the same key is refused.
	w, err := s.Replace(ctx, "a", 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replace(ctx, "a", 64*units.KB); !errors.Is(err, blob.ErrBusy) {
		t.Fatalf("second writer = %v, want ErrBusy", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	// After abort the key accepts a new writer again.
	if err := blob.Replace(ctx, s, "a", 64*units.KB, nil); err != nil {
		t.Fatal(err)
	}
}

// testReplaceSemantics pins create-if-missing, size accounting, and
// old-version retirement.
func testReplaceSemantics(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))

	// Replace of a missing key creates it.
	d1 := payload(100 * units.KB)
	if err := blob.Replace(ctx, s, "a", int64(len(d1)), d1); err != nil {
		t.Fatal(err)
	}
	// Replace swaps contents and live-byte accounting follows the new
	// size.
	d2 := payload(64 * units.KB)
	for i := range d2 {
		d2[i] = byte(255 - i%256)
	}
	if err := blob.Replace(ctx, s, "a", int64(len(d2)), d2); err != nil {
		t.Fatal(err)
	}
	_, got, err := blob.Get(ctx, s, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d2) {
		t.Fatal("Replace payload mismatch")
	}
	if s.LiveBytes() != int64(len(d2)) || s.ObjectCount() != 1 {
		t.Fatalf("live=%d count=%d after replace", s.LiveBytes(), s.ObjectCount())
	}
}

// testRangedReads pins ReadAt: correct bytes, only covering runs
// touched, ErrOutOfRange beyond bounds.
func testRangedReads(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	data := payload(1 * units.MB)
	if err := blob.Put(ctx, s, "a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before := s.Clock().Seconds()
	got, err := r.ReadAt(512*units.KB, 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[512*units.KB:512*units.KB+64*units.KB]) {
		t.Fatal("ReadAt payload mismatch")
	}
	if s.Clock().Seconds() == before {
		t.Fatal("ranged read charged no virtual time")
	}
	rangedCost := s.Clock().Seconds() - before

	before = s.Clock().Seconds()
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if full := s.Clock().Seconds() - before; full <= rangedCost {
		t.Fatalf("64KB ranged read (%.6fs) not cheaper than 1MB full read (%.6fs)", rangedCost, full)
	}

	if _, err := r.ReadAt(900*units.KB, 200*units.KB); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("read past EOF = %v, want ErrOutOfRange", err)
	}
	if _, err := r.ReadAt(-1, 10); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("negative offset = %v, want ErrOutOfRange", err)
	}
	// A hostile offset must not overflow the bounds check into a panic.
	if _, err := r.ReadAt(math.MaxInt64-10, 100); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("overflowing offset = %v, want ErrOutOfRange", err)
	}
}

// testPayloadViewsAreStable pins the view contract of blob.Reader: read
// results have no spare capacity, and bytes a caller still holds are the
// bytes it read, whatever the store does to the object afterwards —
// replace it with an equal-sized version, relocate it (CompactObject,
// PackObjects, where the stack has them), push it out of a cache, delete
// it and reuse its handles for new objects, or recover from a crash.
func testPayloadViewsAreStable(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))

	// "big" is written interleaved with a sibling so the file backend
	// fragments it and CompactObject has something to move; the smalls
	// are pack candidates.
	const bigSize, smallSize = 320 * units.KB, 12 * units.KB
	version := func(key string, size int64, ver byte) []byte {
		p := payload(size)
		for i := range p {
			p[i] ^= ver + key[len(key)-1]
		}
		return p
	}
	wBig, err := s.Create(ctx, "big", bigSize)
	if err != nil {
		t.Fatal(err)
	}
	wSib, err := s.Create(ctx, "sibling", bigSize)
	if err != nil {
		t.Fatal(err)
	}
	big, sib := version("big", bigSize, 1), version("sibling", bigSize, 1)
	for off := int64(0); off < bigSize; off += 64 * units.KB {
		if err := wBig.Append(64*units.KB, big[off:off+64*units.KB]); err != nil {
			t.Fatal(err)
		}
		if err := wSib.Append(64*units.KB, sib[off:off+64*units.KB]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wBig.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := wSib.Commit(); err != nil {
		t.Fatal(err)
	}
	smalls := []string{"small-0", "small-1", "small-2", "small-3"}
	sizes := map[string]int64{"big": bigSize}
	for _, k := range smalls {
		sizes[k] = smallSize
		if err := blob.Put(ctx, s, k, smallSize, version(k, smallSize, 1)); err != nil {
			t.Fatal(err)
		}
	}

	// Hold views of everything: two whole reads of each object (behind a
	// cache the first is the miss, the second the hit) and one range.
	type held struct {
		what string
		view []byte
		want []byte
	}
	var views []held
	hold := func(what string, view, want []byte) {
		t.Helper()
		if !bytes.Equal(view, want) {
			t.Fatalf("%s: payload mismatch on first read", what)
		}
		if cap(view) != len(view) {
			t.Fatalf("%s: view has cap %d beyond its len %d", what, cap(view), len(view))
		}
		views = append(views, held{what, view, want})
	}
	for k, size := range sizes {
		want := version(k, size, 1)
		for _, pass := range []string{"first", "second"} {
			_, got, err := blob.Get(ctx, s, k)
			if err != nil {
				t.Fatal(err)
			}
			hold(k+" "+pass+" whole read", got, want)
		}
	}
	r, err := s.Open(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	part, err := r.ReadAt(100*units.KB, 50*units.KB)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	hold("big ranged read", part, big[100*units.KB:150*units.KB])

	check := func(after string) {
		t.Helper()
		for _, h := range views {
			if !bytes.Equal(h.view, h.want) {
				t.Fatalf("%s changed after %s", h.what, after)
			}
		}
	}
	// A second goroutine keeps reading the views while the store works,
	// as a server writing one to a socket does: under -race a store that
	// writes into a buffer it has handed out is a reported data race,
	// whether or not the bytes end up equal.
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			for _, h := range views {
				if !bytes.Equal(h.view, h.want) {
					t.Errorf("%s changed under a concurrent reader", h.what)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	defer func() { close(stop); <-watched }()

	if rw, ok := blob.As[blob.Rewriter](s); ok {
		if _, err := rw.CompactObject(ctx, "big"); err != nil {
			t.Fatal(err)
		}
		check("CompactObject")
	}
	if pk, ok := blob.As[blob.Packer](s); ok {
		if _, err := pk.PackObjects(ctx, smalls); err != nil && !errors.Is(err, errors.ErrUnsupported) {
			t.Fatal(err)
		}
		check("PackObjects")
	}
	// Same-sized new versions: a store that recycled a payload buffer
	// would hand the old one to exactly these writes.
	for k, size := range sizes {
		if err := blob.Replace(ctx, s, k, size, version(k, size, 2)); err != nil {
			t.Fatal(err)
		}
	}
	check("Replace")
	// 16 MB of other reads: more than the caches the suite runs under.
	filler := version("filler", units.MB, 3)
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("filler-%02d", i)
		if err := blob.Put(ctx, s, k, units.MB, filler); err != nil {
			t.Fatal(err)
		}
		if _, _, err := blob.Get(ctx, s, k); err != nil {
			t.Fatal(err)
		}
	}
	check("cache eviction")
	sizes["sibling"] = bigSize
	for k := range sizes {
		if err := s.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // new objects through the freed handles
		if err := blob.Put(ctx, s, fmt.Sprintf("reuse-%d", i), bigSize, version("reuse", bigSize, 4)); err != nil {
			t.Fatal(err)
		}
	}
	check("Delete and reuse")
	if rec, ok := blob.As[interface{ Recover() int }](s); ok {
		rec.Recover()
		check("Recover")
	}
}

// testReaderPinnedToVersion pins that a Reader serves only the version
// it opened: after a replace or delete, reads fail with ErrNotFound on
// both backends rather than silently serving different bytes.
func testReaderPinnedToVersion(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	old := payload(128 * units.KB)
	if err := blob.Put(ctx, s, "a", int64(len(old)), old); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := blob.Replace(ctx, s, "a", 64*units.KB, payload(64*units.KB)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("ReadAll across replace = %v, want ErrNotFound", err)
	}
	if _, err := r.ReadAt(0, 4*units.KB); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("ReadAt across replace = %v, want ErrNotFound", err)
	}

	r2, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := s.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("ReadAll across delete = %v, want ErrNotFound", err)
	}
}

// testWriterLifecycle pins the streaming writer contract: chunked
// appends, declared-size enforcement, ErrClosed after commit.
func testWriterLifecycle(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode),
		blob.WithWriteRequestSize(64*units.KB))

	data := payload(300 * units.KB)
	w, err := s.Create(ctx, "a", int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing visible before commit.
	if _, err := s.Open(ctx, "a"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Open before commit = %v, want ErrNotFound", err)
	}
	// Stream in caller-chosen chunk sizes; the store re-chunks to its
	// request size internally.
	if err := w.Append(100*units.KB, data[:100*units.KB]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[100*units.KB:]); err != nil {
		t.Fatal(err)
	}
	// Appending past the declared size is refused.
	if err := w.Append(1, []byte{0}); !errors.Is(err, blob.ErrInvalidSize) {
		t.Fatalf("over-append = %v, want ErrInvalidSize", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	//fragvet:ignore poollifecycle the conformance suite deliberately appends after Commit to pin the ErrClosed contract
	if err := w.Append(1, nil); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("append after commit = %v, want ErrClosed", err)
	}
	if err := w.Commit(); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("double commit = %v, want ErrClosed", err)
	}
	_, got, err := blob.Get(ctx, s, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed payload mismatch")
	}

	// A short commit is refused and the writer stays abortable.
	w2, err := s.Create(ctx, "b", 128*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(64*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); !errors.Is(err, blob.ErrInvalidSize) {
		t.Fatalf("short commit = %v, want ErrInvalidSize", err)
	}
	if err := w2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(ctx, "b"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("aborted object visible: %v", err)
	}
}

// testMixedAppendsRejected pins that one stream is all-payload or
// all-metadata: mixing would otherwise let backends retain silently
// partial payloads.
func testMixedAppendsRejected(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.DataMode))
	w, err := s.Create(ctx, "a", 128*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(64*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(64*units.KB, payload(64*units.KB)); !errors.Is(err, blob.ErrInvalidSize) {
		t.Fatalf("payload after metadata-only append = %v, want ErrInvalidSize", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}

	w2, err := s.Create(ctx, "b", 128*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(64*units.KB, payload(64*units.KB)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(64*units.KB, nil); !errors.Is(err, blob.ErrInvalidSize) {
		t.Fatalf("metadata-only after payload append = %v, want ErrInvalidSize", err)
	}
	if err := w2.Abort(); err != nil {
		t.Fatal(err)
	}
}

// testAbortPreservesOldVersion pins the safe-write property through the
// streaming API: an aborted replace leaves the previous version intact.
func testAbortPreservesOldVersion(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	old := payload(128 * units.KB)
	if err := blob.Put(ctx, s, "a", int64(len(old)), old); err != nil {
		t.Fatal(err)
	}
	w, err := s.Replace(ctx, "a", 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(64*units.KB, payload(64*units.KB)); err != nil {
		t.Fatal(err)
	}
	// The old version stays readable while the stream is in flight.
	if _, got, err := blob.Get(ctx, s, "a"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old version unreadable mid-stream: %v", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	n, got, err := blob.Get(ctx, s, "a")
	if err != nil || n != int64(len(old)) || !bytes.Equal(got, old) {
		t.Fatalf("old version damaged after abort: n=%d err=%v", n, err)
	}
	if s.LiveBytes() != int64(len(old)) {
		t.Fatalf("LiveBytes = %d after abort, want %d", s.LiveBytes(), len(old))
	}
}

// testNoSpace pins ErrNoSpaceLeft and that a failed oversized write
// leaves prior objects intact.
func testNoSpace(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(16*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err := blob.Put(ctx, s, "a", 6*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	err := blob.Put(ctx, s, "big", 64*units.MB, nil)
	if !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("oversized put = %v, want ErrNoSpaceLeft", err)
	}
	if info, err := s.Stat(ctx, "a"); err != nil || info.Size != 6*units.MB {
		t.Fatalf("prior object damaged: %+v, %v", info, err)
	}
	if _, err := s.Stat(ctx, "big"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("failed put left a visible object: %v", err)
	}
}

// testContextCancellation pins cancellation at open and mid-stream.
func testContextCancellation(t *testing.T, mk Factory) {
	s := mk(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err := blob.Put(context.Background(), s, "a", 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Open(canceled, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open with canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.Replace(canceled, "a", 1*units.MB); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replace with canceled ctx = %v, want context.Canceled", err)
	}
	if err := s.Delete(canceled, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete with canceled ctx = %v, want context.Canceled", err)
	}

	// Cancel mid-stream: the writer refuses further work, Abort cleans
	// up, and the old version survives.
	ctx, cancelMid := context.WithCancel(context.Background())
	w, err := s.Replace(ctx, "a", 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(256*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	cancelMid()
	if err := w.Append(256*units.KB, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("append after cancel = %v, want context.Canceled", err)
	}
	if err := w.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("commit after cancel = %v, want context.Canceled", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Stat(context.Background(), "a"); err != nil || info.Size != 1*units.MB {
		t.Fatalf("old version damaged after canceled stream: %+v, %v", info, err)
	}
}

// testContextDeadline pins deadline behavior: every operation on an
// expired context returns context.DeadlineExceeded (not Canceled, not
// a store sentinel), a deadline that expires mid-stream stops the
// reader and writer cleanly, and the handles release their resources —
// the key accepts a new writer, the old version is intact, and fresh
// handles work. The network front-end's per-request deadlines ride
// exactly this contract.
func testContextDeadline(t *testing.T, mk Factory) {
	bg := context.Background()
	s := mk(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err := blob.Put(bg, s, "a", 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}

	// An already-expired deadline fails every entry point with
	// DeadlineExceeded. (time.Nanosecond is a constant, not a wall-clock
	// read; the Done wait is how the expiry is observed.)
	expired, cancel := context.WithTimeout(bg, time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if _, err := s.Open(expired, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Open with expired ctx = %v, want DeadlineExceeded", err)
	}
	if _, err := s.Stat(expired, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stat with expired ctx = %v, want DeadlineExceeded", err)
	}
	if _, err := s.Create(expired, "b", 1*units.MB); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Create with expired ctx = %v, want DeadlineExceeded", err)
	}
	if _, err := s.Replace(expired, "a", 1*units.MB); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Replace with expired ctx = %v, want DeadlineExceeded", err)
	}
	if err := s.Delete(expired, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Delete with expired ctx = %v, want DeadlineExceeded", err)
	}
	// A failed Create must not leave the key locked or half-created.
	if _, err := s.Stat(bg, "b"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("expired Create left a visible object: %v", err)
	}

	// Deadline expires mid-stream: work done before the deadline
	// succeeds, work after it fails typed, and Abort still cleans up.
	wctx, wcancel := context.WithTimeout(bg, 250*time.Millisecond)
	defer wcancel()
	w, err := s.Replace(wctx, "a", 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(256*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	<-wctx.Done()
	if err := w.Append(256*units.KB, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("append after deadline = %v, want DeadlineExceeded", err)
	}
	if err := w.Commit(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit after deadline = %v, want DeadlineExceeded", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	// The handle is truly gone: the key accepts a new writer and the old
	// version survived.
	if err := blob.Replace(bg, s, "a", 1*units.MB, nil); err != nil {
		t.Fatalf("key still locked after aborted deadline stream: %v", err)
	}
	if info, err := s.Stat(bg, "a"); err != nil || info.Size != 1*units.MB {
		t.Fatalf("old version damaged after deadline stream: %+v, %v", info, err)
	}

	// Same for a reader: reads before the deadline succeed, reads after
	// fail typed, Close releases the handle.
	rctx, rcancel := context.WithTimeout(bg, 250*time.Millisecond)
	defer rcancel()
	r, err := s.Open(rctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(0, 4*units.KB); err != nil {
		t.Fatal(err)
	}
	<-rctx.Done()
	if _, err := r.ReadAll(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAll after deadline = %v, want DeadlineExceeded", err)
	}
	if _, err := r.ReadAt(0, 4*units.KB); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAt after deadline = %v, want DeadlineExceeded", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh handles on a fresh context are unaffected.
	if _, _, err := blob.Get(bg, s, "a"); err != nil {
		t.Fatal(err)
	}
}

// testConcurrentReaders pins that many goroutines can read concurrently.
func testConcurrentReaders(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	const objects = 8
	for i := 0; i < objects; i++ {
		key := fmt.Sprintf("o%d", i)
		if err := blob.Put(ctx, s, key, 64*units.KB, payload(64*units.KB)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("o%d", (g+i)%objects)
				n, data, err := blob.Get(ctx, s, key)
				if err != nil {
					errs <- err
					return
				}
				if n != 64*units.KB || int64(len(data)) != n {
					errs <- fmt.Errorf("short read of %s: n=%d len=%d", key, n, len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// testConcurrentWriters pins that goroutines writing distinct keys all
// commit and the store's accounting survives the interleaving.
func testConcurrentWriters(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	const writers = 12
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("w%02d", g)
			if err := blob.Put(ctx, s, key, 512*units.KB, nil); err != nil {
				errs <- fmt.Errorf("%s: %w", key, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.ObjectCount() != writers {
		t.Fatalf("ObjectCount = %d, want %d", s.ObjectCount(), writers)
	}
	if s.LiveBytes() != writers*512*units.KB {
		t.Fatalf("LiveBytes = %d, want %d", s.LiveBytes(), writers*512*units.KB)
	}
}

// testConcurrentMixedChurn hammers the store with mixed readers,
// replacers, and deleters; only typed, expected errors may surface.
func testConcurrentMixedChurn(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	const objects = 6
	for i := 0; i < objects; i++ {
		if err := blob.Put(ctx, s, fmt.Sprintf("o%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				key := fmt.Sprintf("o%d", (g*7+i)%objects)
				switch g % 3 {
				case 0:
					if _, _, err := blob.Get(ctx, s, key); err != nil &&
						!errors.Is(err, blob.ErrNotFound) {
						errs <- err
						return
					}
				case 1:
					if err := blob.Replace(ctx, s, key, 256*units.KB, nil); err != nil &&
						!errors.Is(err, blob.ErrBusy) {
						errs <- err
						return
					}
				case 2:
					if err := s.Delete(ctx, key); err != nil &&
						!errors.Is(err, blob.ErrNotFound) {
						errs <- err
						return
					}
					if err := blob.Put(ctx, s, key, 256*units.KB, nil); err != nil &&
						!errors.Is(err, blob.ErrAlreadyExists) && !errors.Is(err, blob.ErrBusy) {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("unexpected error under churn: %v", err)
	}
}

// testHandlesStayWithTheirStore pins that a released handle stays with
// the store that issued it. Store A's closed reader and committed writer
// keep failing with ErrClosed after a second store B opens a reader and
// stages a writer of its own, and nothing done through them reaches B:
// were handles recycled across stores, A's stale reader would read B's
// object and A's stale writer would commit B's staged version.
func testHandlesStayWithTheirStore(t *testing.T, mk Factory) {
	ctx := context.Background()
	opts := []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithDiskMode(disk.DataMode)}
	a, b := mk(opts...), mk(opts...)
	old, staged := payload(64*units.KB), bytes.Repeat([]byte{0x5a}, 64<<10)
	for _, s := range []blob.Store{a, b} {
		if err := blob.Put(ctx, s, "k", int64(len(old)), old); err != nil {
			t.Fatal(err)
		}
	}
	r, w := openOn(t, a, "k"), stageOn(t, a, "w", old)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	rb, wb := openOn(t, b, "k"), stageOn(t, b, "k", staged)
	defer rb.Close()
	defer wb.Abort()
	if _, err := r.ReadAll(); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("A's closed reader after B's Open: ReadAll = %v, want ErrClosed", err)
	}
	if _, err := r.ReadAt(0, 1); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("A's closed reader after B's Open: ReadAt = %v, want ErrClosed", err)
	}
	if err := w.Commit(); !errors.Is(err, blob.ErrClosed) {
		t.Fatalf("A's committed writer after B's Replace: Commit = %v, want ErrClosed", err)
	}
	if got, err := rb.ReadAll(); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("B's reader after A's stale handles: err = %v, bytes unchanged = %v", err, bytes.Equal(got, old))
	}
	if _, got, err := blob.Get(ctx, b, "k"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("B's object after A's stale handles: err = %v, unchanged = %v", err, bytes.Equal(got, old))
	}
}

// openOn returns a reader of key on s.
func openOn(t *testing.T, s blob.Store, key string) blob.Reader {
	t.Helper()
	r, err := s.Open(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stageOn returns a writer replacing key on s with data, every byte
// appended and nothing committed.
func stageOn(t *testing.T, s blob.Store, key string, data []byte) blob.Writer {
	t.Helper()
	w, err := s.Replace(context.Background(), key, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	return w
}

// GroupCommitCeiling is the maxDelay the group-commit wait-rule tests
// build their stores with: so long that a commit which ever sleeps on
// the batch timer cannot stay inside the tests' wall-time bounds.
const GroupCommitCeiling = 5 * time.Second

// CommitTogether opens one writer per key on s, appends size
// metadata-only bytes to each, and only then commits them all at once:
// every commit has its siblings open and visible, so the pipeline under
// s has to coalesce them by counting writers, not by waiting out its
// timer. It returns the wall time of the commit phase.
func CommitTogether(t testing.TB, s blob.Store, keys []string, size int64) time.Duration {
	t.Helper()
	ctx := context.Background()
	writers := make([]blob.Writer, len(keys))
	for i, key := range keys {
		w, err := s.Create(ctx, key, size)
		if err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
		if err := w.Append(size, nil); err != nil {
			t.Fatalf("append %s: %v", key, err)
		}
		writers[i] = w
	}
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	//fragvet:ignore vclockpurity the wait rule under test is real scheduling latency, so the bound is wall time
	start := time.Now()
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Commit()
		}()
	}
	wg.Wait()
	//fragvet:ignore vclockpurity as above
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %s: %v", keys[i], err)
		}
	}
	return elapsed
}

// LoneCommitDoesNotWait pins the lone-writer rule on a stack built with
// blob.WithGroupCommit(8, GroupCommitCeiling) that holds no open
// writer: put — one whole-object write through the stack, by whatever
// path the caller wants covered — returns without touching the timer,
// and the commit counters of pipeline (the stack itself, or the store
// beneath a network hop) grow by one commit in one batch.
func LoneCommitDoesNotWait(t testing.TB, pipeline blob.Store, put func() error) {
	t.Helper()
	before, _ := blob.CommitStatsOf(pipeline)
	//fragvet:ignore vclockpurity the wait rule under test is real scheduling latency, so the bound is wall time
	start := time.Now()
	if err := put(); err != nil {
		t.Fatal(err)
	}
	//fragvet:ignore vclockpurity as above
	if d := time.Since(start); d > GroupCommitCeiling/10 {
		t.Errorf("lone commit took %v against a %v ceiling: it waited for siblings that do not exist",
			d, GroupCommitCeiling)
	}
	after, _ := blob.CommitStatsOf(pipeline)
	if after.Commits-before.Commits != 1 || after.Batches-before.Batches != 1 {
		t.Errorf("lone commit: pipeline went %+v -> %+v, want one more commit in one more batch",
			before, after)
	}
}

// PutKey is the usual put for LoneCommitDoesNotWait: a small
// metadata-only object written to key through s.
func PutKey(s blob.Store, key string) func() error {
	return func() error { return blob.Put(context.Background(), s, key, 64*units.KB, nil) }
}

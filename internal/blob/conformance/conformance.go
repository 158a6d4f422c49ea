// Package conformance states the blob.Store contract. Model is the
// contract as a map, and RunOps checks a store against it over a
// decoded op sequence: results, sentinels, versions, accounting and the
// payload-view rule. Run holds the cases a sequential model cannot
// express — context cancellation and deadlines, concurrent callers,
// handles across two stores, and the cost of a ranged read. The group
// commit helpers pin the wait rule of a commit pipeline.
package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// Run executes the cases RunOps cannot against stores built by mk.
func Run(t *testing.T, mk Factory) {
	tests := []struct {
		name string
		fn   func(*testing.T, Factory)
	}{
		{"RangedReads", testRangedReads},
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

// testRangedReads pins that a ranged read touches only the runs that
// cover it: 64 KB of a 1 MB object costs less virtual time than the
// whole object.
func testRangedReads(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	if err := blob.Put(ctx, s, "a", units.MB, payload(units.MB)); err != nil {
		t.Fatal(err)
	}
	r := openOn(t, s, "a")
	defer r.Close()
	cost := func(read func() ([]byte, error)) float64 {
		t.Helper()
		before := s.Clock().Seconds()
		if _, err := read(); err != nil {
			t.Fatal(err)
		}
		return s.Clock().Seconds() - before
	}
	ranged := cost(func() ([]byte, error) { return r.ReadAt(512*units.KB, 64*units.KB) })
	if full := cost(r.ReadAll); ranged <= 0 || full <= ranged {
		t.Fatalf("64KB ranged read (%.6fs) not cheaper than 1MB full read (%.6fs)", ranged, full)
	}
}

// testContextCancellation and testContextDeadline pin what a store does
// once a caller's context has ended, canceled or past its deadline.
func testContextCancellation(t *testing.T, mk Factory) {
	testContextEnd(t, mk, context.Canceled, func(time.Duration) (context.Context, func()) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, cancel
	})
}

func testContextDeadline(t *testing.T, mk Factory) {
	testContextEnd(t, mk, context.DeadlineExceeded, func(d time.Duration) (context.Context, func()) {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		t.Cleanup(cancel)
		return ctx, func() { <-ctx.Done() }
	})
}

// testContextEnd pins that every operation on an ended context fails
// with its error, want, rather than a store sentinel, and leaves
// nothing behind; that a writer and a reader whose context ends midway
// work up to then and fail typed after; and that the handles release
// what they held: the key takes a new writer, the old version is
// intact, and fresh handles work. The network front-end's per-request
// deadlines ride this contract. begin returns a context that lives at
// most d and a func that returns once it has ended.
func testContextEnd(t *testing.T, mk Factory, want error, begin func(d time.Duration) (context.Context, func())) {
	bg := context.Background()
	s := mk(blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err := blob.Put(bg, s, "a", 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s = %v, want %v", what, err, want)
		}
	}
	ended, end := begin(time.Nanosecond)
	end()
	_, err := s.Open(ended, "a")
	check("Open", err)
	_, err = s.Stat(ended, "a")
	check("Stat", err)
	_, err = s.Create(ended, "b", 1*units.MB)
	check("Create", err)
	_, err = s.Replace(ended, "a", 1*units.MB)
	check("Replace", err)
	check("Delete", s.Delete(ended, "a"))
	if _, err := s.Stat(bg, "b"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("a refused Create left a visible object: %v", err)
	}

	ctx, end := begin(250 * time.Millisecond)
	w, err := s.Replace(ctx, "a", 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(256*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(0, 4*units.KB); err != nil {
		t.Fatal(err)
	}
	end()
	check("Append after the end", w.Append(256*units.KB, nil))
	check("Commit after the end", w.Commit())
	_, err = r.ReadAll()
	check("ReadAll after the end", err)
	_, err = r.ReadAt(0, 4*units.KB)
	check("ReadAt after the end", err)
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Stat(bg, "a"); err != nil || info.Size != 1*units.MB {
		t.Fatalf("old version damaged after an ended stream: %+v, %v", info, err)
	}
	if err := blob.Replace(bg, s, "a", 1*units.MB, nil); err != nil {
		t.Fatalf("key still locked after an aborted stream: %v", err)
	}
	if _, _, err := blob.Get(bg, s, "a"); err != nil {
		t.Fatal(err)
	}
}

// inParallel runs fn(0) … fn(n-1) on n goroutines and, once all have
// returned, fails t with the first error.
func inParallel(t *testing.T, n int, fn func(g int) error) {
	t.Helper()
	errs := make(chan error, n)
	for g := range n {
		go func() { errs <- fn(g) }()
	}
	var first error
	for range n {
		if err := <-errs; first == nil {
			first = err
		}
	}
	if first != nil {
		t.Fatal(first)
	}
}

// allow returns err unless it carries one of the expected sentinels.
func allow(err error, expected ...error) error {
	for _, e := range expected {
		if errors.Is(err, e) {
			return nil
		}
	}
	return err
}

// testConcurrentReaders pins that many goroutines can read concurrently.
func testConcurrentReaders(t *testing.T, mk Factory) {
	ctx := context.Background()
	s := mk(blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	const objects = 8
	for i := 0; i < objects; i++ {
		if err := blob.Put(ctx, s, fmt.Sprintf("o%d", i), 64*units.KB, payload(64*units.KB)); err != nil {
			t.Fatal(err)
		}
	}
	inParallel(t, 16, func(g int) error {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("o%d", (g+i)%objects)
			if n, data, err := blob.Get(ctx, s, key); err != nil || n != 64*units.KB || int64(len(data)) != n {
				return fmt.Errorf("read of %s: n=%d len=%d err=%v", key, n, len(data), err)
			}
		}
		return nil
	})
}

// testConcurrentWriters pins that goroutines writing distinct keys all
// commit and the store's accounting survives the interleaving.
func testConcurrentWriters(t *testing.T, mk Factory) {
	s := mk(blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	const writers = 12
	inParallel(t, writers, func(g int) error {
		return blob.Put(context.Background(), s, fmt.Sprintf("w%02d", g), 512*units.KB, nil)
	})
	if u := s.Usage(); u.Objects != writers || u.LiveBytes != writers*512*units.KB {
		t.Fatalf("Usage = %+v, want %d objects and %d live bytes", u, writers, writers*512*units.KB)
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
	inParallel(t, 12, func(g int) error {
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("o%d", (g*7+i)%objects)
			var err error
			switch g % 3 {
			case 0:
				_, _, err = blob.Get(ctx, s, key)
				err = allow(err, blob.ErrNotFound)
			case 1:
				err = allow(blob.Replace(ctx, s, key, 256*units.KB, nil), blob.ErrBusy)
			case 2:
				if err = allow(s.Delete(ctx, key), blob.ErrNotFound); err == nil {
					err = allow(blob.Put(ctx, s, key, 256*units.KB, nil), blob.ErrAlreadyExists, blob.ErrBusy)
				}
			}
			if err != nil {
				return fmt.Errorf("unexpected error under churn: %w", err)
			}
		}
		return nil
	})
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

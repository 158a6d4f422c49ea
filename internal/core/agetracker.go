// Package core is the paper's primary contribution rendered as a
// library: the blob.Store get/put large-object abstraction (§4:
// "applications that make use of simple get/put storage primitives"),
// two interchangeable implementations — filesystem-backed and
// database-backed — with matched safe-replace semantics, and the
// storage-age clock (§4.4) that makes long-term fragmentation
// measurements comparable across systems, volume sizes, and hardware.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
)

// AgeTracker maintains the paper's storage-age metric for a store: "the
// ratio of bytes in objects that once existed on a volume to the number
// of bytes in use on the volume" (§4.4) — for a safe-write workload,
// replaced bytes divided by live bytes ("safe writes per object").
//
// Use it by routing all mutations through the tracker. Retired and live
// byte counts are charged when a streaming writer COMMITS, never at
// buffer hand-off: an aborted or crashed stream leaves the metric
// untouched, exactly as it leaves the store untouched. The tracker is
// safe for concurrent use, like the stores it wraps.
//
// The byte counters are plain atomics, so Age — which churn sources
// poll before every write — is two loads with no lock. The per-key
// committed-size map stays under the mutex for direct callers; k
// concurrent executor streams instead shard it through StreamView,
// which keeps a goroutine-local map and merges at phase end.
type AgeTracker struct {
	front // routes mutations, charging against sizes
	store blob.Store

	retiredBytes atomic.Int64 // bytes of object versions retired since baseline
	liveBytes    atomic.Int64

	// mu guards sizes: the tracker's own view of each routed key — the
	// last committed size, or a dead entry once the tracker deleted the
	// key. Dead entries invalidate the old-size snapshot an in-flight
	// ReplaceWriter took before the delete, so a version is never
	// retired twice.
	mu    sync.Mutex
	sizes map[string]trackedSize

	// writers recycles the charging wrappers of this tracker and its
	// StreamViews — one per mutation, so at high stream counts they
	// alloc-churn like the handles they wrap.
	writers sync.Pool
}

// trackedSize is one entry of AgeTracker.sizes.
type trackedSize struct {
	size int64
	live bool
}

// NewAgeTracker wraps store. Storage age starts at zero; call
// ResetBaseline after bulk load so that age 0 corresponds to the freshly
// loaded store, as in the paper's figures.
func NewAgeTracker(store blob.Store) *AgeTracker {
	a := &AgeTracker{store: store, sizes: make(map[string]trackedSize)}
	a.front = front{a: a, acct: a}
	a.writers.New = func() any { return new(trackedWriter) }
	return a
}

// Store returns the wrapped store.
func (a *AgeTracker) Store() blob.Store { return a.store }

// Age returns the current storage age. Lock-free: the churn sources
// poll this before every write, so at high stream counts it must not
// serialize the fleet.
func (a *AgeTracker) Age() float64 {
	live := a.liveBytes.Load()
	if live == 0 {
		return 0
	}
	return float64(a.retiredBytes.Load()) / float64(live)
}

// LiveBytes returns the tracked live byte count.
func (a *AgeTracker) LiveBytes() int64 { return a.liveBytes.Load() }

// RetiredBytes returns bytes retired since the baseline.
func (a *AgeTracker) RetiredBytes() int64 { return a.retiredBytes.Load() }

// ResetBaseline zeroes the retired-byte counter (end of bulk load).
func (a *AgeTracker) ResetBaseline() { a.retiredBytes.Store(0) }

// charge applies one committed create/replace to the byte counters
// given the previous version's size (if any).
//
//fragvet:ignore vclockpurity byte accounting, not a disk-cost path; the drive charges the clock for the I/O itself
func (a *AgeTracker) charge(size, old int64, existed bool) {
	if existed {
		a.retiredBytes.Add(old)
		a.liveBytes.Add(-old)
	}
	a.liveBytes.Add(size)
}

// chargeDelete applies one delete of an old-size version.
//
//fragvet:ignore vclockpurity byte accounting, not a disk-cost path; the drive charges the clock for the I/O itself
func (a *AgeTracker) chargeDelete(old int64) {
	a.retiredBytes.Add(old)
	a.liveBytes.Add(-old)
}

// accountant is the committed-size map a mutation charges against: the
// tracker's own (shared, under the mutex) or one executor stream's
// StreamView (goroutine-local, merged at phase end).
type accountant interface {
	// swap records next as key's entry and returns the previous one.
	swap(key string, next trackedSize) (prev trackedSize, known bool)
}

// swap reads and writes the shared map in one critical section, so
// interleaved streams to the same key charge exactly once per retired
// version.
func (a *AgeTracker) swap(key string, next trackedSize) (trackedSize, bool) {
	a.mu.Lock()
	prev, known := a.sizes[key]
	a.sizes[key] = next
	a.mu.Unlock()
	return prev, known
}

// front is the mutation surface an AgeTracker and its StreamViews share:
// both route to the tracker's store and byte counters, each charging
// against its own size map.
type front struct {
	a    *AgeTracker
	acct accountant
}

// CreateWriter starts a tracked streaming create; live bytes are charged
// when the returned writer commits.
func (f front) CreateWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return f.newWriter(ctx, key, size, false)
}

// ReplaceWriter starts a tracked streaming safe replace; the retired old
// version and the new live bytes are charged when the returned writer
// commits.
func (f front) ReplaceWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return f.newWriter(ctx, key, size, true)
}

func (f front) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
	t := trackedWriter{f: f, key: key, size: size}
	var err error
	if replace {
		// The stat models the application's metadata lookup before a
		// safe write and snapshots the old size for keys the accountant
		// has never routed (a store populated before the tracker attached).
		if info, err := f.a.store.Stat(ctx, key); err == nil {
			t.snapSize, t.snapOK = info.Size, true
		}
		t.Writer, err = f.a.store.Replace(ctx, key, size)
	} else {
		t.Writer, err = f.a.store.Create(ctx, key, size)
	}
	if err != nil {
		return nil, err
	}
	w := f.a.writers.Get().(*trackedWriter)
	*w = t
	return w, nil
}

// trackedWriter charges the storage-age counters at Commit time.
type trackedWriter struct {
	blob.Writer
	f        front
	key      string
	size     int64
	snapSize int64
	snapOK   bool
	charged  bool
}

// Commit commits the underlying writer, then charges the metric. The
// old size comes from the accountant's committed-size map; the snapshot
// taken at writer open only covers keys first written outside the
// tracker. A successful commit retires the wrapper to its tracker's
// pool; the backend writer reference stays behind so a misuse
// double-Commit still reaches the backend's ErrClosed instead of a nil
// handle.
func (w *trackedWriter) Commit() error {
	if err := w.Writer.Commit(); err != nil {
		return err
	}
	if !w.charged {
		old, existed := w.snapSize, w.snapOK
		if prev, known := w.f.acct.swap(w.key, trackedSize{size: w.size, live: true}); known {
			old, existed = prev.size, prev.live
		}
		w.f.a.charge(w.size, old, existed)
		w.charged = true
		w.f.a.writers.Put(w)
	}
	return nil
}

// Put stores a new whole-buffer object, charging its bytes at commit.
func (f front) Put(ctx context.Context, key string, size int64, data []byte) error {
	w, err := f.CreateWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Replace performs a whole-buffer safe replace, retiring the old
// version's bytes at commit.
func (f front) Replace(ctx context.Context, key string, size int64, data []byte) error {
	w, err := f.ReplaceWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Delete removes an object, retiring its bytes.
func (f front) Delete(ctx context.Context, key string) error {
	info, err := f.a.store.Stat(ctx, key)
	if err != nil {
		return err
	}
	if err := f.a.store.Delete(ctx, key); err != nil {
		return err
	}
	old := info.Size
	if prev, known := f.acct.swap(key, trackedSize{}); known && prev.live {
		old = prev.size
	}
	f.a.chargeDelete(old)
	return nil
}

// StreamView returns a goroutine-local charging view for one executor
// stream. The view routes mutations to the same store and the same
// atomic byte counters — Age observed through the tracker is exact at
// every commit — but keeps its committed-size entries in a private map,
// touching the tracker's shared map (under the mutex) only on the
// FIRST encounter of each key. Call Merge when the phase ends to fold
// the view's entries back; the Executor does this for its streams.
//
// Views assume each key is mutated by at most one view per phase (the
// per-stream keyspace discipline every workload here follows; trace
// partitioning routes by key for the same reason). Two views racing on
// one key within a phase would each charge against their own last-seen
// size — exactly the anomaly the shared map exists to prevent — so
// cross-stream keys must stay on the plain tracker.
func (a *AgeTracker) StreamView() *StreamView {
	v := &StreamView{local: make(map[string]trackedSize)}
	v.front = front{a: a, acct: v}
	return v
}

// StreamView is one stream's private AgeTracker frontend. Not safe for
// concurrent use — it belongs to its stream's goroutine; Merge is
// called after the stream is done.
type StreamView struct {
	front
	local map[string]trackedSize
}

// Tracker returns the shared tracker behind the view.
func (v *StreamView) Tracker() *AgeTracker { return v.a }

// swap consults the view's private map first and falls back to the
// shared map for keys this stream has not touched this phase; the new
// entry stays private until Merge.
func (v *StreamView) swap(key string, next trackedSize) (trackedSize, bool) {
	prev, known := v.local[key]
	if !known {
		v.a.mu.Lock()
		prev, known = v.a.sizes[key]
		v.a.mu.Unlock()
	}
	v.local[key] = next
	return prev, known
}

// Merge folds the view's committed-size entries into the shared map and
// empties the view. Call once the owning stream has finished its phase;
// the view remains usable for a subsequent phase.
func (v *StreamView) Merge() {
	if len(v.local) == 0 {
		return
	}
	v.a.mu.Lock()
	for k, e := range v.local {
		v.a.sizes[k] = e
	}
	v.a.mu.Unlock()
	clear(v.local)
}

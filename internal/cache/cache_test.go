package cache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func newCachedFS(t *testing.T, cacheBytes int64, opts ...blob.Option) *cache.Store {
	t.Helper()
	base := append([]blob.Option{
		blob.WithCapacity(256 * units.MB), blob.WithDiskMode(disk.DataMode)}, opts...)
	inner, err := core.NewFileStore(vclock.New(), base...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(inner, cache.WithCapacity(cacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesOptions(t *testing.T) {
	inner, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.New(nil, cache.WithCapacity(units.MB)); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("nil inner = %v, want ErrBadOption", err)
	}
	if _, err := cache.New(inner); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("missing capacity = %v, want ErrBadOption", err)
	}
	if _, err := cache.New(inner, cache.WithCapacity(-1)); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("negative capacity = %v, want ErrBadOption", err)
	}
}

// TestHitServedAtMemorySpeed pins the hit-rate-aware virtual-time
// accounting: the first read pays the store's full per-fragment cost,
// the second is served from memory orders of magnitude faster, and the
// stats ledger records exactly one miss and one hit.
func TestHitServedAtMemorySpeed(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 64*units.MB)
	data := make([]byte, units.MB)
	for i := range data {
		data[i] = byte(i)
	}
	if err := blob.Put(ctx, c, "a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}

	cold := vclock.StartWatch(c.Clock())
	if _, got, err := blob.Get(ctx, c, "a"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %v", err)
	}
	coldSec := cold.Seconds()

	warm := vclock.StartWatch(c.Clock())
	if _, got, err := blob.Get(ctx, c, "a"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read: %v", err)
	}
	warmSec := warm.Seconds()

	if warmSec <= 0 {
		t.Fatal("memory hit charged zero virtual time")
	}
	if warmSec*50 > coldSec {
		t.Fatalf("hit not at memory speed: cold %.6fs vs warm %.6fs", coldSec, warmSec)
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.ResidentBytes != int64(len(data)) {
		t.Fatalf("resident = %d, want %d", st.ResidentBytes, len(data))
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %.2f, want 0.5", st.HitRate())
	}
}

// TestRangedReadCaching pins the ranged-read path under whole-object
// entries: a ranged read is served from memory only when its object is
// resident; otherwise it reads through at disk cost and keeps nothing.
func TestRangedReadCaching(t *testing.T) {
	ctx := context.Background()
	const size = units.MB
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 151)
	}
	// setup returns a cache holding data under "a", resident if warm, and
	// a reader open on it.
	setup := func(t *testing.T, warm bool) (*cache.Store, blob.Reader) {
		t.Helper()
		c := newCachedFS(t, 64*units.MB)
		if err := blob.Put(ctx, c, "a", size, data); err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, _, err := blob.Get(ctx, c, "a"); err != nil {
				t.Fatal(err)
			}
		}
		r, err := c.Open(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return c, r
	}
	// memSec is what serving n bytes from memory costs.
	memSec := func(n int64) float64 { return float64(n) / (cache.DefaultMemoryMBps * float64(units.MB)) }
	const off, n = 128 * units.KB, 64 * units.KB

	t.Run("ResidentIsAHit", func(t *testing.T) {
		c, r := setup(t, true)
		w := vclock.StartWatch(c.Clock())
		got, err := r.ReadAt(off, n)
		if err != nil || !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("ReadAt: err %v, right bytes %v", err, err == nil && bytes.Equal(got, data[off:off+n]))
		}
		if sec := w.Seconds(); sec <= 0 || sec > 2*memSec(n) {
			t.Fatalf("ranged hit charged %.9fs, want memory speed %.9fs", sec, memSec(n))
		}
		if st := c.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.ResidentBytes != size {
			t.Fatalf("stats = %+v, want 1 hit, the warming miss, the object resident", st)
		}
	})

	t.Run("MissReadsThroughAndKeepsNothing", func(t *testing.T) {
		c, r := setup(t, false)
		for i := int64(1); i <= 2; i++ {
			w := vclock.StartWatch(c.Clock())
			got, err := r.ReadAt(off, n)
			if err != nil || !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("ReadAt %d: err %v", i, err)
			}
			if sec := w.Seconds(); sec <= 10*memSec(n) {
				t.Fatalf("ReadAt %d charged %.9fs, want disk cost above %.9fs", i, sec, 10*memSec(n))
			}
			if st := c.CacheStats(); st.Hits != 0 || st.Misses != i || st.ResidentBytes != 0 {
				t.Fatalf("after ReadAt %d: stats = %+v, want %d misses and nothing resident", i, st, i)
			}
		}
		// A whole read still fills.
		if _, _, err := blob.Get(ctx, c, "a"); err != nil {
			t.Fatal(err)
		}
		if st := c.CacheStats(); st.Misses != 3 || st.ResidentBytes != size {
			t.Fatalf("after a whole read: stats = %+v, want 3 misses and the object resident", st)
		}
	})

	t.Run("OutOfRangeIsNoHit", func(t *testing.T) {
		c, r := setup(t, true)
		for _, rg := range [][2]int64{{-1, 1}, {0, -1}, {size, 1}, {size + 1, 0}, {0, size + 1}, {1, size}} {
			if got, err := r.ReadAt(rg[0], rg[1]); !errors.Is(err, blob.ErrOutOfRange) {
				t.Errorf("ReadAt(%d, %d) = %d bytes, %v; want ErrOutOfRange", rg[0], rg[1], len(got), err)
			}
		}
		if st := c.CacheStats(); st.Hits != 0 || st.Misses != 1 {
			t.Fatalf("stats = %+v, want no hit and only the warming miss", st)
		}
	})

	t.Run("EmptyRangeAtSize", func(t *testing.T) {
		_, r := setup(t, true)
		if got, err := r.ReadAt(size, 0); got != nil || err != nil {
			t.Fatalf("ReadAt(Size(), 0) = %v, %v; want nil, nil", got, err)
		}
	})
}

// TestEvictionUnderCapacity pins LRU eviction: a budget of two objects
// cycling through three keeps resident bytes within budget and counts
// evictions, and the least recently used object is the one that pays
// disk cost again.
func TestEvictionUnderCapacity(t *testing.T) {
	ctx := context.Background()
	const objBytes = units.MB
	c := newCachedFS(t, 2*objBytes)
	for _, k := range []string{"a", "b", "c"} {
		if err := blob.Put(ctx, c, k, objBytes, make([]byte, objBytes)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(k string) {
		t.Helper()
		if _, _, err := blob.Get(ctx, c, k); err != nil {
			t.Fatal(err)
		}
	}
	read("a")
	read("b")
	read("a") // touch a: b becomes LRU
	read("c") // evicts b
	st := c.CacheStats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes > c.Capacity() {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, c.Capacity())
	}
	// a survived (touched), b did not.
	before := c.CacheStats()
	read("a")
	if got := c.CacheStats(); got.Hits != before.Hits+1 {
		t.Fatal("touched object was evicted")
	}
	before = c.CacheStats()
	read("b")
	if got := c.CacheStats(); got.Misses != before.Misses+1 {
		t.Fatal("LRU object was not evicted")
	}
}

// TestOversizedObjectNotCached pins that an object larger than the
// whole budget streams through without thrashing the resident set.
func TestOversizedObjectNotCached(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 256*units.KB)
	if err := blob.Put(ctx, c, "small", 64*units.KB, make([]byte, 64*units.KB)); err != nil {
		t.Fatal(err)
	}
	if err := blob.Put(ctx, c, "big", units.MB, make([]byte, units.MB)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Get(ctx, c, "small"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Get(ctx, c, "big"); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.ResidentBytes != 64*units.KB || st.Evictions != 0 {
		t.Fatalf("oversized object disturbed the cache: %+v", st)
	}
	// The small object is still a hit.
	if _, _, err := blob.Get(ctx, c, "small"); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

// TestResetStatsKeepsResidency pins the phase-separation contract:
// ResetStats zeroes the counters but the resident set keeps serving
// hits, so a measurement phase's hit rate excludes warm-up misses.
func TestResetStatsKeepsResidency(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 64*units.MB)
	if err := blob.Put(ctx, c, "a", units.MB, make([]byte, units.MB)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Get(ctx, c, "a"); err != nil { // warm-up miss
		t.Fatal(err)
	}
	c.ResetStats()
	if _, _, err := blob.Get(ctx, c, "a"); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("post-reset stats = %+v, want pure hits", st)
	}
	if st.HitRate() != 1 {
		t.Fatalf("post-reset hit rate = %.2f, want 1", st.HitRate())
	}
	if st.ResidentBytes != units.MB {
		t.Fatalf("reset dropped residency: %+v", st)
	}
}

// mkStores builds the invalidation test matrix: each backend plus a
// 4-shard mixed fleet, every one wrapped in a cache.
func mkStores(t *testing.T) map[string]*cache.Store {
	t.Helper()
	out := make(map[string]*cache.Store)
	for name, spec := range inners {
		spec.Capacity, spec.Mode, spec.CacheBytes = 256*units.MB, disk.DataMode, 32*units.MB
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s.(*cache.Store)
	}
	return out
}

// TestInvalidationPreservesReaderPinning is the read-path acceptance
// test: open a Reader (served from memory), replace or delete the
// object through the cache, and the pinned Reader must fail
// blob.ErrNotFound on every path — the cache must never serve the dead
// version — while a fresh Open sees only the new version. Runs over
// both backends and a 4-shard mixed fleet.
func TestInvalidationPreservesReaderPinning(t *testing.T) {
	ctx := context.Background()
	for name, c := range mkStores(t) {
		t.Run(name, func(t *testing.T) {
			old := make([]byte, 256*units.KB)
			for i := range old {
				old[i] = 0xAA
			}
			if err := blob.Put(ctx, c, "a", int64(len(old)), old); err != nil {
				t.Fatal(err)
			}
			// Warm the cache, then open a reader that will serve from it.
			if _, _, err := blob.Get(ctx, c, "a"); err != nil {
				t.Fatal(err)
			}
			pinned, err := c.Open(ctx, "a")
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Close()
			if _, err := pinned.ReadAll(); err != nil {
				t.Fatal(err)
			}

			// Replace through the cache: the pinned reader's version dies.
			fresh := make([]byte, 128*units.KB)
			for i := range fresh {
				fresh[i] = 0x55
			}
			if err := blob.Replace(ctx, c, "a", int64(len(fresh)), fresh); err != nil {
				t.Fatal(err)
			}
			if _, err := pinned.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("ReadAll across replace = %v, want ErrNotFound", err)
			}
			if _, err := pinned.ReadAt(0, 4*units.KB); !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("ReadAt across replace = %v, want ErrNotFound", err)
			}

			// A fresh open never sees the dead version's bytes or size.
			r2, err := c.Open(ctx, "a")
			if err != nil {
				t.Fatal(err)
			}
			if r2.Size() != int64(len(fresh)) {
				t.Fatalf("post-replace Size = %d, want %d", r2.Size(), len(fresh))
			}
			got, err := r2.ReadAll()
			if err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("post-replace read served stale bytes: %v", err)
			}

			// Delete through the cache: the second pinned reader dies too,
			// and the key is gone for fresh opens.
			if err := c.Delete(ctx, "a"); err != nil {
				t.Fatal(err)
			}
			if _, err := r2.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("ReadAll across delete = %v, want ErrNotFound", err)
			}
			if err := r2.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Open(ctx, "a"); !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("Open after delete = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestInvalidationAfterEviction pins the subtle ABA case: a reader
// opened from a cached entry that is later EVICTED (not invalidated)
// keeps serving its still-live version; once the object is replaced,
// the same reader must fail ErrNotFound even though its entry left the
// cache long before the replace.
func TestInvalidationAfterEviction(t *testing.T) {
	ctx := context.Background()
	const objBytes = units.MB
	c := newCachedFS(t, 2*objBytes)
	if err := blob.Put(ctx, c, "a", objBytes, make([]byte, objBytes)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Get(ctx, c, "a"); err != nil {
		t.Fatal(err)
	}
	pinned, err := c.Open(ctx, "a") // hit reader over the cached entry
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	// Force "a" out of the cache with two fresh objects.
	for _, k := range []string{"b", "c"} {
		if err := blob.Put(ctx, c, k, objBytes, make([]byte, objBytes)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := blob.Get(ctx, c, k); err != nil {
			t.Fatal(err)
		}
	}
	// Evicted but not replaced: the pinned version is still live.
	if _, err := pinned.ReadAll(); err != nil {
		t.Fatalf("read after eviction = %v, want success", err)
	}
	// Replaced: now it must die, cached entry or not.
	if err := blob.Replace(ctx, c, "a", objBytes, make([]byte, objBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("read after replace = %v, want ErrNotFound", err)
	}
}

// TestConcurrentHitsAndInvalidations hammers one cached store with
// readers racing replacers across a small keyspace; only typed,
// expected errors may surface and the run must be race-clean.
func TestConcurrentHitsAndInvalidations(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 4*units.MB, blob.WithDiskMode(disk.MetadataMode))
	const objects = 4
	for i := 0; i < objects; i++ {
		if err := blob.Put(ctx, c, fmt.Sprintf("o%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("o%d", (g+i)%objects)
				if g%2 == 0 {
					if _, _, err := blob.Get(ctx, c, key); err != nil && !errors.Is(err, blob.ErrNotFound) {
						done <- err
						return
					}
				} else {
					if err := blob.Replace(ctx, c, key, 256*units.KB, nil); err != nil && !errors.Is(err, blob.ErrBusy) {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("unexpected error under churn: %v", err)
		}
	}
}

// TestReadsShareTheStoresBytes pins the view contract of blob.Reader on
// the cache boundary: the miss result, every hit result and the wrapped
// store's own read are one array (a resident entry is not a second copy
// of the object), every view's capacity is clipped to its length, and a
// cached read allocates no payload.
func TestReadsShareTheStoresBytes(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 64*units.MB)
	data := make([]byte, 256*units.KB)
	for i := range data {
		data[i] = byte(i % 201)
	}
	if err := blob.Put(ctx, c, "a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	read := func(s blob.Store) []byte {
		t.Helper()
		_, got, err := blob.Get(ctx, s, "a")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read: %d bytes, err %v", len(got), err)
		}
		if cap(got) != len(got) {
			t.Fatalf("view has cap %d beyond its len %d", cap(got), len(got))
		}
		return got
	}
	miss, hit, inner := read(c), read(c), read(c.Inner())
	if &miss[0] != &hit[0] || &hit[0] != &inner[0] {
		t.Fatal("miss result, hit result and store read are not one array")
	}
	if st := c.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.ResidentBytes != int64(len(data)) {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, the object resident", st)
	}

	r, err := c.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	part, err := r.ReadAt(units.KB, 4*units.KB)
	if err != nil || &part[0] != &inner[units.KB] || cap(part) != len(part) {
		t.Fatalf("ranged hit: err %v, cap %d len %d, aliases store: %v",
			err, cap(part), len(part), err == nil && &part[0] == &inner[units.KB])
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	testing.AllocsPerRun(runs, func() { read(c) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call on top of runs.
	if perRead := int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); perRead > 4*units.KB {
		t.Errorf("cached read of a %d-byte object allocates %d bytes", len(data), perRead)
	}
}

// TestPinnedReaderNeverSeesNewBytes races pinned readers against
// replacers in data mode: a reader opened before a replace may serve
// the old bytes or fail ErrNotFound, but must NEVER return the
// replacement's bytes — the fill-suppression window around a commit
// exists exactly for this (a racing fill could otherwise install new
// bytes under the old version tag).
func TestPinnedReaderNeverSeesNewBytes(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 64*units.MB)
	const size = 64 * 1024
	oldPat, newPat := bytes.Repeat([]byte{0xAA}, size), bytes.Repeat([]byte{0x55}, size)
	for round := 0; round < 40; round++ {
		key := fmt.Sprintf("k%03d", round)
		if err := blob.Put(ctx, c, key, size, oldPat); err != nil {
			t.Fatal(err)
		}
		pinned, err := c.Open(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = blob.Replace(ctx, c, key, size, newPat)
		}()
		// Racing reads through the pinned reader and fresh opens that
		// may fill the cache mid-commit.
		for i := 0; i < 4; i++ {
			if got, err := pinned.ReadAll(); err == nil {
				if !bytes.Equal(got, oldPat) {
					t.Fatalf("round %d: pinned reader served replacement bytes", round)
				}
			} else if !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("round %d: pinned read = %v", round, err)
			}
			_, _, _ = blob.Get(ctx, c, key)
		}
		<-done
		_ = pinned.Close()
		// After the replace has fully committed, the cache must serve
		// only the new bytes.
		if _, got, err := blob.Get(ctx, c, key); err != nil || !bytes.Equal(got, newPat) {
			t.Fatalf("round %d: post-replace read wrong: %v", round, err)
		}
	}
}

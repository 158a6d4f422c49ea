// Package cache provides the read-path caching layer above the blob
// stores: a cache.Store wraps any blob.Store — either core backend, a
// sharded fleet, group commit on or off — behind the same interface,
// keeping recently read objects resident in simulated memory under a
// configurable byte capacity (LRU).
//
// The paper charges every read one disk request per physically
// contiguous fragment, but real deployments put a memory cache above
// the store, so hot objects never touch the fragmented layout at all:
// fragmentation only bites the cold tail. The cache makes that regime
// measurable with hit-rate-aware virtual-time accounting — a hit
// advances the store's virtual clock at memory speed (bytes over
// DefaultMemoryMBps) instead of paying per-fragment disk seeks, while
// a miss reads through the wrapped store at full disk cost. A cache
// entry is always one whole object version: a whole read that misses
// fills the cache, while a ranged read is served from memory only when
// its object is resident and otherwise reads through, keeping nothing.
//
// The store names each version itself (blob.Info.Version), and the
// cache keeps no version of its own: every entry is tagged with the
// store's version of the bytes it holds, and every Reader is pinned to
// the version a free Stat reported at Open. Before a read it serves
// from memory, the Reader checks with another free Stat that its
// version is still live, so the blob.Reader pinning contract holds
// exactly: a Reader opened through the cache fails with
// blob.ErrNotFound once its version is replaced, deleted or
// relocated, whether that write went through the cache or beneath it.
//
// Writes are write-through: Create/Replace/Delete go straight to the
// wrapped store (no write-allocate), and a successful Commit or Delete
// drops the key's entry, so a dead version's bytes leave the budget at
// once. That drop governs residency only; correctness rests on the
// Stats.
package cache

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/units"
	"repro/internal/vclock"
)

// Options configures a cache.Store. Build with the With* options.
type Options struct {
	// CapacityBytes is the cache's resident-byte budget. Required, > 0.
	CapacityBytes int64
}

// DefaultMemoryMBps is the simulated memory bandwidth a hit is charged
// at, in MB per virtual second: 12.5 GB/s, two orders of magnitude
// above the simulated drives' streaming rate, so an all-hit phase runs
// at memory speed without driving virtual elapsed time to exactly zero.
const DefaultMemoryMBps = 12800.0

// Option configures a Store at construction.
type Option func(*Options)

// WithCapacity sets the cache's resident-byte budget.
func WithCapacity(bytes int64) Option {
	return func(o *Options) { o.CapacityBytes = bytes }
}

// Stats counts cache activity. Snapshot via Store.CacheStats; zero the
// counters between experiment phases with Store.ResetStats so a churn
// or measurement phase's hit rate excludes warm-up misses.
type Stats struct {
	// Hits is the number of read operations served from memory.
	Hits int64
	// Misses is the number of read operations that went to the wrapped
	// store.
	Misses int64
	// Evictions is the number of entries evicted for capacity.
	Evictions int64
	// Invalidations is the number of entries dropped because their
	// version died: by a commit or delete through the cache, or at an
	// Open that found a newer version (or none) in the store beneath.
	Invalidations int64
	// ResidentBytes is the logical bytes currently cached.
	ResidentBytes int64
}

// HitRate returns the fraction of read operations served from memory,
// or 0 before any read.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// view returns b[off:off+n] with its capacity clipped, so a caller's
// append cannot write into an array the cache and other readers share;
// nil (metadata-only simulation) stays nil.
func view(b []byte, off, n int64) []byte {
	if b == nil {
		return nil
	}
	return b[off : off+n : off+n]
}

// entry is one whole cached object version, tagged with the store's
// Info.Version for the bytes it holds; it serves any read of that
// version. The payload is the read-only view the wrapped store returned
// (see blob.Reader), kept and served as it is: in data mode a resident
// entry shares the store's bytes instead of holding a second copy.
// bytes is the object's size, the logical footprint charged against
// capacity — logical, not len(data), so metadata-only simulation
// exercises the same residency and eviction behaviour as data mode.
type entry struct {
	key        string
	version    uint64
	data       []byte // nil in metadata mode
	bytes      int64
	prev, next *entry
}

// Store implements blob.Store over a wrapped inner store plus an LRU
// object cache. Safe for concurrent use when the inner store is; one
// mutex guards the cache index, LRU list and stats, and is never held
// across inner-store calls.
type Store struct {
	// Store is the wrapped store. It is embedded so the introspection
	// methods the cache does not change (Stat, Keys, Usage, ...)
	// forward by promotion; capabilities it does not change — the
	// compactor's Rewriter among them — are reached through Inner by
	// blob.As.
	blob.Store
	clock *vclock.Clock
	opts  Options

	mu       sync.Mutex
	entries  map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	resident int64
	stats    Stats

	// readers recycles this cache's reader handles: Open is one per read
	// op, so at hundreds of streams the handle dominates the cache
	// layer's alloc profile. A closed handle goes back to the pool of the
	// cache that issued it.
	readers sync.Pool
}

// New wraps inner in a read cache. WithCapacity is required;
// misconfiguration fails with an error wrapping blob.ErrBadOption.
// Writes may go through the returned Store or straight to inner: the
// cache serves bytes only at the version the store reports live.
func New(inner blob.Store, options ...Option) (*Store, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: cache requires a wrapped store", blob.ErrBadOption)
	}
	var opts Options
	for _, o := range options {
		o(&opts)
	}
	if opts.CapacityBytes <= 0 {
		return nil, fmt.Errorf("%w: cache capacity %d must be positive", blob.ErrBadOption, opts.CapacityBytes)
	}
	s := &Store{
		Store:   inner,
		clock:   inner.Clock(),
		opts:    opts,
		entries: make(map[string]*entry),
	}
	s.readers.New = func() any { return new(reader) }
	return s, nil
}

// Inner returns the wrapped store, for analysis tools and blob.As.
func (s *Store) Inner() blob.Store { return s.Store }

// Capacity returns the cache's resident-byte budget.
func (s *Store) Capacity() int64 { return s.opts.CapacityBytes }

// CacheStats returns a snapshot of the cache counters.
func (s *Store) CacheStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResidentBytes = s.resident
	return st
}

// ResetStats zeroes the hit/miss/eviction/invalidation counters while
// keeping the resident set, so a measurement phase's hit rate excludes
// warm-up misses (the phase-separation the db buffer pool's Reset
// provides one layer down).
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}

// chargeMemory advances the virtual clock for n bytes served from
// memory — the hit-rate-aware accounting: memory bandwidth instead of
// per-fragment disk requests.
func (s *Store) chargeMemory(n int64) {
	if n <= 0 {
		return
	}
	s.clock.AdvanceSeconds(float64(n) / (DefaultMemoryMBps * float64(units.MB)))
}

// --- LRU maintenance (callers hold s.mu) ---

func (s *Store) pushFront(e *entry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// drop removes e from the index and LRU list and returns its bytes to
// the budget.
func (s *Store) drop(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.resident -= e.bytes
}

// evictFor evicts LRU entries until the budget holds the cache's
// resident bytes. Callers hold s.mu.
func (s *Store) evictFor() {
	for s.resident > s.opts.CapacityBytes && s.tail != nil {
		victim := s.tail
		s.drop(victim)
		s.stats.Evictions++
	}
}

// invalidate drops key's entry after a commit or delete through the
// cache: the version it held is dead, so its bytes leave the budget at
// once. Only residency rests on it; a reader never serves a dead
// version from memory, because it asks the store first.
func (s *Store) invalidate(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.drop(e)
		s.stats.Invalidations++
	}
	s.mu.Unlock()
}

// fill counts a read-through and, for a whole read by a reader that may
// fill, keeps the object. An object larger than the whole budget, or a
// key already resident, is not kept; a ranged read keeps nothing.
func (s *Store) fill(r *reader, whole bool, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Misses++
	if _, ok := s.entries[r.key]; ok || !whole || !r.cached || r.size > s.opts.CapacityBytes {
		return
	}
	e := &entry{key: r.key, version: r.version, data: data, bytes: r.size}
	s.entries[r.key] = e
	s.pushFront(e)
	s.resident += r.size
	s.evictFor()
}

// checkRange validates a ranged read against an object size, mirroring
// the backends' overflow-safe bounds checks.
func checkRange(key string, size, off, length int64) error {
	if off < 0 || length < 0 || off > size || length > size-off {
		return fmt.Errorf("%w: [%d,+%d) of %s (size %d)", blob.ErrOutOfRange, off, length, key, size)
	}
	return nil
}

// Name implements blob.Store, e.g. "cache(filesystem)" or
// "cache(sharded-4(database+filesystem))".
func (s *Store) Name() string { return "cache(" + s.Store.Name() + ")" }

// Open implements blob.Store. The reader is pinned to the version a
// free Stat (blob.Resume) reports. An entry at that version opens a
// memory handle with no other store access. Anything else opens the
// wrapped store's Reader and stats again: the reader may serve from and
// fill the cache only if the two Stats agree, since versions only grow
// and so equal Stats prove the inner reader holds that version (the
// server's open-then-stat rule). Otherwise it only reads through.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rctx := blob.Resume(ctx)
	info, statErr := s.Store.Stat(rctx, key)
	var data []byte
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && (statErr != nil || e.version < info.Version) {
		// Its version died: written beneath the cache, or kept by a fill
		// that raced the commit through it.
		s.drop(e)
		s.stats.Invalidations++
		ok = false
	}
	cached := ok && e.version == info.Version
	if cached {
		s.touch(e)
		data = e.data
	}
	s.mu.Unlock()
	var inner blob.Reader
	if !cached {
		var err error
		if inner, err = s.Store.Open(ctx, key); err != nil {
			return nil, err
		}
		after, err := s.Store.Stat(rctx, key)
		cached = statErr == nil && err == nil && after.Version == info.Version
		info.Size = inner.Size()
	}
	r := s.readers.Get().(*reader)
	*r = reader{s: s, ctx: rctx, key: key, size: info.Size, version: info.Version,
		inner: inner, data: data, cached: cached}
	return r, nil
}

// reader is a handle pinned to one version of an object: the store's
// Info.Version at Open. inner is the wrapped store's reader, nil when the
// object was resident at Open; data then holds that entry's view, so a
// later eviction cannot affect the reader. While the object is resident
// at the pinned version, reads are served from memory once a free Stat
// shows the version still live; the rest read through the inner reader,
// which pins natively, and a whole read-through fills the cache. ctx is
// the caller's, under blob.Resume, so the liveness Stats are free.
type reader struct {
	s       *Store
	ctx     context.Context
	key     string
	size    int64
	version uint64
	inner   blob.Reader
	data    []byte
	cached  bool // holds version, so may serve from and fill the cache
	closed  bool
}

// Size implements blob.Reader.
func (r *reader) Size() int64 { return r.size }

// ReadAll implements blob.Reader: memory speed when fully resident,
// read-through plus fill otherwise.
func (r *reader) ReadAll() ([]byte, error) { return r.read(true, 0, r.size) }

// ReadAt implements blob.Reader: memory speed when the object is
// resident; otherwise the inner store charges only the physical runs
// covering the range, and the cache keeps nothing.
func (r *reader) ReadAt(off, length int64) ([]byte, error) { return r.read(false, off, length) }

func (r *reader) read(whole bool, off, length int64) ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if !whole {
		if err := checkRange(r.key, r.size, off, length); err != nil {
			return nil, err
		}
	}
	if r.cached {
		if info, err := r.s.Store.Stat(r.ctx, r.key); err != nil || info.Version != r.version {
			return nil, fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
		}
		if length == 0 && !whole {
			return nil, nil
		}
		if data, ok := r.fromCache(off, length); ok {
			r.s.chargeMemory(length)
			return data, nil
		}
	}
	var data []byte
	var err error
	if whole {
		data, err = r.inner.ReadAll()
	} else {
		data, err = r.inner.ReadAt(off, length)
	}
	if err != nil || length == 0 {
		return data, err
	}
	r.s.fill(r, whole, data)
	return data, nil
}

// fromCache returns a view of [off, off+length) of the object at the
// pinned version and counts the hit, or ok=false to read through: a
// memory handle serves its own view, any other reader the resident
// entry's. Entry buffers are immutable once installed, so the view
// outlives the mutex that guards the lookup.
func (r *reader) fromCache(off, length int64) (data []byte, ok bool) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	data = r.data
	if e, present := r.s.entries[r.key]; present && e.version == r.version {
		r.s.touch(e)
		if r.inner != nil {
			data = e.data
		}
	} else if r.inner != nil {
		return nil, false
	}
	r.s.stats.Hits++
	return view(data, off, length), true
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool after closing the inner reader.
func (r *reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	inner := r.inner
	r.inner, r.data = nil, nil // don't pin payloads from the pool
	r.s.readers.Put(r)
	if inner == nil {
		return nil
	}
	return inner.Close()
}

// cacheWriter wraps an inner Writer to drop the cached entry once the
// new version is visible. Commit blocks until the inner store reports
// the version durable, so the drop follows the publish and precedes the
// writer's caller proceeding.
type cacheWriter struct {
	blob.Writer
	s   *Store
	key string
}

// Commit implements blob.Writer: write-through, then the dead version's
// entry leaves the cache.
func (w *cacheWriter) Commit() error {
	if err := w.Writer.Commit(); err != nil {
		return err
	}
	w.s.invalidate(w.key)
	return nil
}

// Create implements blob.Store.
func (s *Store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	w, err := s.Store.Create(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &cacheWriter{Writer: w, s: s, key: key}, nil
}

// Replace implements blob.Store.
func (s *Store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	w, err := s.Store.Replace(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &cacheWriter{Writer: w, s: s, key: key}, nil
}

// Delete implements blob.Store, dropping the cached entry once the
// inner store confirms the delete.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.Store.Delete(ctx, key); err != nil {
		return err
	}
	s.invalidate(key)
	return nil
}

var _ blob.Store = (*Store)(nil)

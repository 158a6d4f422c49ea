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
// a miss reads through the wrapped store at full disk cost and fills
// the cache.
//
// Writes are write-through with invalidation: Create/Replace/Delete go
// straight to the wrapped store, and a successful Commit or Delete
// drops the cached entry (no write-allocate), so the cache can never
// serve a dead version. The Reader version-pinning contract of
// internal/blob is preserved exactly: a Reader opened through the cache
// fails with blob.ErrNotFound once its version is replaced or deleted,
// whether it was serving from memory or from the store beneath.
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

// maxRanges caps how many discontiguous ranged reads one partial entry
// retains before further range fills are dropped.
const maxRanges = 32

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
	// Invalidations is the number of entries dropped by a commit or
	// delete through the cache.
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

// crange is one cached ranged read of a partial entry.
type crange struct {
	off, length int64
	data        []byte // nil under metadata-only simulation
}

// entry is one cached object version. A full entry serves any read;
// a partial entry serves ranged reads covered by one cached range.
// Payloads are the read-only views the wrapped store returned (see
// blob.Reader), kept and served as they are: in data mode a resident
// entry shares the store's bytes instead of holding a second copy.
// bytes is the logical resident footprint charged against capacity —
// logical, not len(data), so metadata-only simulation exercises the
// same residency and eviction behaviour as data mode.
type entry struct {
	key        string
	size       int64
	full       bool
	data       []byte // full-object payload; nil in metadata mode
	ranges     []crange
	bytes      int64
	prev, next *entry
}

// Store implements blob.Store over a wrapped inner store plus an LRU
// object cache. Safe for concurrent use when the inner store is; one
// mutex guards the cache index, LRU list, versions, and stats, and is
// never held across inner-store calls.
type Store struct {
	// Store is the wrapped store. It is embedded so the introspection
	// methods the cache does not change (Stat, Keys, LiveBytes, ...)
	// forward by promotion; capabilities it does not change are reached
	// through Inner by blob.As.
	blob.Store
	clock *vclock.Clock
	opts  Options

	mu       sync.Mutex
	entries  map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	resident int64
	stats    Stats
	// versions counts committed mutations per key routed through the
	// cache. Readers and fills are tagged with the version observed at
	// Open: a bumped version means the object was replaced or deleted,
	// so pinned readers fail ErrNotFound and stale fills are dropped.
	// (Eviction does NOT bump a version — an evicted entry's version is
	// still live underneath, only no longer resident.) Entries are
	// never pruned, even on Delete: removal would reset a key's counter
	// and reintroduce the ABA the counter exists to prevent, so the map
	// grows with lifetime key cardinality — one uint64 per distinct key
	// ever mutated, a deliberate trade of memory for an unconditionally
	// safe pinning check.
	versions map[string]uint64
	// writing counts keys with a cacheWriter commit in flight. Between
	// the inner store publishing a new version and this layer bumping
	// the version counter, a racing reader could open the NEW version
	// while still observing the OLD version number — and a fill would
	// then install new bytes under the old tag, which a reader pinned
	// to the old version would happily serve. Fills are therefore
	// suppressed for keys mid-commit; reads fall back to the (always
	// correctly pinned) inner store instead.
	writing map[string]int

	// hitReaders and missReaders recycle this cache's reader handles:
	// Open is one per read op, so at hundreds of streams the two wrapper
	// types dominate the cache layer's alloc profile. A closed handle
	// goes back to the pool of the cache that issued it.
	hitReaders, missReaders sync.Pool
}

// New wraps inner in a read cache. WithCapacity is required;
// misconfiguration fails with an error wrapping blob.ErrBadOption.
// Mutations must be routed through the returned Store — a write issued
// directly to inner bypasses invalidation and may leave the cache
// serving the dead version.
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
		Store:    inner,
		clock:    inner.Clock(),
		opts:     opts,
		entries:  make(map[string]*entry),
		versions: make(map[string]uint64),
		writing:  make(map[string]int),
	}
	s.hitReaders.New = func() any { return new(hitReader) }
	s.missReaders.New = func() any { return new(missReader) }
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

// invalidate drops key's entry and bumps its version — a commit or
// delete made the cached bytes a dead version.
func (s *Store) invalidate(key string) {
	s.mu.Lock()
	s.versions[key]++
	if e, ok := s.entries[key]; ok {
		s.drop(e)
		s.stats.Invalidations++
	}
	s.mu.Unlock()
}

// beginWrite marks a commit in flight for key; fills are suppressed
// until the matching endWrite.
func (s *Store) beginWrite(key string) {
	s.mu.Lock()
	s.writing[key]++
	s.mu.Unlock()
}

// endWrite clears key's in-flight mark and, when the commit published,
// invalidates atomically in the same critical section — no window where
// fills are re-enabled but the version is still old.
func (s *Store) endWrite(key string, published bool) {
	s.mu.Lock()
	if s.writing[key]--; s.writing[key] <= 0 {
		delete(s.writing, key)
	}
	if published {
		s.versions[key]++
		if e, ok := s.entries[key]; ok {
			s.drop(e)
			s.stats.Invalidations++
		}
	}
	s.mu.Unlock()
}

// fillFull installs a whole-object entry read at version v, unless the
// version moved on (replace/delete raced the fill — the stale data is
// discarded), the object exceeds the whole budget, or an entry for a
// newer read already exists.
func (s *Store) fillFull(key string, v uint64, size int64, data []byte) {
	if size > s.opts.CapacityBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.versions[key] != v || s.writing[key] > 0 {
		return
	}
	if e, ok := s.entries[key]; ok {
		if e.full {
			return
		}
		s.drop(e) // promote: the full object supersedes cached ranges
	}
	e := &entry{key: key, size: size, full: true, data: data, bytes: size}
	s.entries[key] = e
	s.pushFront(e)
	s.resident += size
	s.evictFor()
}

// fillRange records one ranged read at version v on key's (possibly
// new) partial entry. Overlapping or adjacent cached ranges are merged
// into one contiguous range, so sliding-window reads cannot charge the
// same bytes against the budget more than once.
func (s *Store) fillRange(key string, v uint64, size, off, length int64, data []byte) {
	if length > s.opts.CapacityBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.versions[key] != v || s.writing[key] > 0 {
		return
	}
	e, ok := s.entries[key]
	if ok && e.full {
		return // whole object already resident
	}
	if !ok {
		e = &entry{key: key, size: size}
		s.entries[key] = e
		s.pushFront(e)
	} else {
		// The object is being actively read even though this range
		// missed; keep its recency fresh so striding ranged reads do
		// not drift a hot entry to the eviction tail.
		s.touch(e)
	}
	if covers(e, off, length) != nil {
		return
	}
	// Coalesce: collect every cached range overlapping or abutting the
	// new one, widen to their union, and splice the payloads together.
	lo, hi := off, off+length
	keep := e.ranges[:0]
	var absorbed []crange
	for _, r := range e.ranges {
		if r.off <= hi && lo <= r.off+r.length {
			absorbed = append(absorbed, r)
			lo = min(lo, r.off)
			hi = max(hi, r.off+r.length)
		} else {
			keep = append(keep, r)
		}
	}
	if len(keep) >= maxRanges {
		e.ranges = append(keep, absorbed...) // full: restore, skip the fill
		return
	}
	// A range that absorbs nothing keeps the view it was handed; a
	// merged one builds its own buffer, immutable once installed.
	buf := data
	if data != nil && len(absorbed) > 0 {
		buf = make([]byte, hi-lo)
		for _, r := range absorbed {
			copy(buf[r.off-lo:], r.data)
		}
		copy(buf[off-lo:], data)
	}
	var freed int64
	for _, r := range absorbed {
		freed += r.length
	}
	e.ranges = append(keep, crange{off: lo, length: hi - lo, data: buf})
	delta := (hi - lo) - freed
	e.bytes += delta
	s.resident += delta
	s.evictFor()
}

// covers returns the cached range of a partial entry that covers
// [off, off+length), or nil. Full entries are handled by the callers.
func covers(e *entry, off, length int64) *crange {
	for i := range e.ranges {
		r := &e.ranges[i]
		if r.off <= off && off-r.off <= r.length-length {
			return r
		}
	}
	return nil
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

// Open implements blob.Store. A fully resident object opens a pure
// memory handle — no store access at all; anything else opens the
// wrapped store's Reader (which pins the version natively) and serves
// covered reads from memory, filling the cache on misses.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && e.full {
		s.touch(e)
		r := s.hitReaders.Get().(*hitReader)
		*r = hitReader{s: s, ctx: ctx, key: key, size: e.size, data: e.data,
			version: s.versions[key]}
		s.mu.Unlock()
		return r, nil
	}
	v := s.versions[key]
	s.mu.Unlock()
	inner, err := s.Store.Open(ctx, key)
	if err != nil {
		return nil, err
	}
	r := s.missReaders.Get().(*missReader)
	*r = missReader{s: s, ctx: ctx, key: key, r: inner, version: v}
	return r, nil
}

// hitReader serves one fully resident object version from memory. It
// holds the entry's payload view from Open, so a concurrent eviction
// cannot affect it; version pinning is enforced against the cache's
// version counter, which every commit and delete through the cache bumps.
type hitReader struct {
	s       *Store
	ctx     context.Context
	key     string
	size    int64
	data    []byte
	version uint64
	closed  bool
}

// Size implements blob.Reader.
func (r *hitReader) Size() int64 { return r.size }

// validate checks handle liveness, the range [off, +length) of a
// ranged read, and version pinning before a read.
func (r *hitReader) validate(ranged bool, off, length int64) error {
	if r.closed {
		return fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if ranged {
		if err := checkRange(r.key, r.size, off, length); err != nil {
			return err
		}
	}
	r.s.mu.Lock()
	live := r.s.versions[r.key] == r.version
	if e, ok := r.s.entries[r.key]; ok && live {
		r.s.touch(e)
	}
	r.s.mu.Unlock()
	if !live {
		return fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
	}
	return nil
}

// ReadAll implements blob.Reader at memory speed.
func (r *hitReader) ReadAll() ([]byte, error) {
	if err := r.validate(false, 0, 0); err != nil {
		return nil, err
	}
	r.s.mu.Lock()
	r.s.stats.Hits++
	r.s.mu.Unlock()
	r.s.chargeMemory(r.size)
	return view(r.data, 0, int64(len(r.data))), nil
}

// ReadAt implements blob.Reader at memory speed.
func (r *hitReader) ReadAt(off, length int64) ([]byte, error) {
	if err := r.validate(true, off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	r.s.mu.Lock()
	r.s.stats.Hits++
	r.s.mu.Unlock()
	r.s.chargeMemory(length)
	return view(r.data, off, length), nil
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool.
func (r *hitReader) Close() error {
	if !r.closed {
		r.closed = true
		r.data = nil // don't pin evicted payloads from the pool
		r.s.hitReaders.Put(r)
	}
	return nil
}

// missReader wraps the inner store's Reader for an object that was not
// fully resident at Open. Reads covered by cached ranges (or a full
// entry another reader filled meanwhile) are served from memory; the
// rest read through at disk cost and fill the cache. The inner Reader
// enforces version pinning for read-through; the version tag gates
// fills and memory serves.
type missReader struct {
	s       *Store
	ctx     context.Context
	key     string
	r       blob.Reader
	version uint64
	closed  bool
}

// Size implements blob.Reader.
func (r *missReader) Size() int64 { return r.r.Size() }

// fromCache returns a view of the resident bytes covering
// [off, off+length) at the pinned version, or ok=false to read through.
// length < 0 requests the whole object. Entry buffers are immutable once
// installed, so the view outlives the mutex that guards the lookup.
func (r *missReader) fromCache(off, length int64) (data []byte, ok bool) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.s.versions[r.key] != r.version {
		return nil, false
	}
	e, present := r.s.entries[r.key]
	if !present {
		return nil, false
	}
	whole := length < 0
	if whole {
		off, length = 0, e.size
	}
	if e.full {
		r.s.touch(e)
		r.s.stats.Hits++
		return view(e.data, off, length), true
	}
	if whole {
		return nil, false
	}
	if cr := covers(e, off, length); cr != nil {
		r.s.touch(e)
		r.s.stats.Hits++
		return view(cr.data, off-cr.off, length), true
	}
	return nil, false
}

// ReadAll implements blob.Reader: memory speed when fully resident,
// read-through plus fill otherwise.
func (r *missReader) ReadAll() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if data, ok := r.fromCache(0, -1); ok {
		r.s.chargeMemory(r.r.Size())
		return data, nil
	}
	data, err := r.r.ReadAll()
	if err != nil {
		return nil, err
	}
	r.s.mu.Lock()
	r.s.stats.Misses++
	r.s.mu.Unlock()
	r.s.fillFull(r.key, r.version, r.r.Size(), data)
	return data, nil
}

// ReadAt implements blob.Reader: a cached covering range serves at
// memory speed; otherwise the inner store charges only the physical
// runs covering the range, and the range joins the cache.
func (r *missReader) ReadAt(off, length int64) ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkRange(r.key, r.r.Size(), off, length); err != nil {
		return nil, err
	}
	if length == 0 {
		return r.r.ReadAt(off, 0) // empty, unless the version is gone
	}
	if data, ok := r.fromCache(off, length); ok {
		r.s.chargeMemory(length)
		return data, nil
	}
	data, err := r.r.ReadAt(off, length)
	if err != nil {
		return nil, err
	}
	r.s.mu.Lock()
	r.s.stats.Misses++
	r.s.mu.Unlock()
	r.s.fillRange(r.key, r.version, r.r.Size(), off, length, data)
	return data, nil
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool after closing the inner reader.
func (r *missReader) Close() error {
	if r.closed {
		return r.r.Close()
	}
	r.closed = true
	inner := r.r
	r.s.missReaders.Put(r)
	return inner.Close()
}

// cacheWriter wraps an inner Writer to invalidate the cached entry when
// the new version becomes visible. Commit blocks until the inner store
// reports the version durable — through the group-commit pipeline when
// one is enabled, and through the shard layer's accounting when the
// inner store is sharded — so invalidation happens strictly after
// publish and before the writer's caller proceeds.
type cacheWriter struct {
	blob.Writer
	s   *Store
	key string
}

// Commit implements blob.Writer: write-through invalidation. The
// in-flight mark brackets the inner commit so no racing reader can
// fill the cache with the new version's bytes under the old version
// number; endWrite then invalidates in the same critical section that
// clears the mark.
func (w *cacheWriter) Commit() error {
	w.s.beginWrite(w.key)
	err := w.Writer.Commit()
	w.s.endWrite(w.key, err == nil)
	return err
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

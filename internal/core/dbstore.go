package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

// DBStore is the paper's database configuration (§4.2) behind the v2
// blob.Store API: objects stored as out-of-row BLOBs with metadata in
// the same filegroup, bulk-logged mode, a dedicated log drive.
//
// Writers accumulate appended bytes client-side and hand the object to
// the engine at Commit in one implicit transaction — the §3.1 shape of
// database client interfaces — inside which the engine still allocates
// in request-sized chunks, so layout behaviour matches the v1 API
// exactly. Until Commit nothing is visible, matching the filesystem
// backend's safe-write semantics.
//
// With blob.WithGroupCommit, Commit enqueues onto the store's commit
// queue and a batcher coalesces pending transactions: the engine forces
// its log ONCE per batch — one sequential write covering every record —
// instead of once per transaction, the §3.1 amortization.
//
// The store is safe for concurrent callers: per-key striped locks order
// operations on the same key, and an internal mutex serializes access to
// the single-threaded engine beneath.
type DBStore struct {
	eng   *db.Database
	clock *vclock.Clock

	locks     *blob.KeyLocks
	committer *blob.GroupCommitter

	mu        sync.Mutex // guards eng, liveBytes, tags, inflight
	liveBytes int64
	tags      map[string]uint32
	inflight  map[string]bool // keys with an uncommitted writer
}

// NewDBStore builds a database-backed store on fresh simulated drives
// sharing clock. blob.WithCapacity is required; misconfiguration fails
// with blob.ErrBadOption.
func NewDBStore(clock *vclock.Clock, options ...blob.Option) (*DBStore, error) {
	opts := blob.NewOptions(options...)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: NewDBStore: %w", err)
	}
	var diskOpts []disk.Option
	if opts.NoOwnerMap {
		diskOpts = append(diskOpts, disk.WithoutOwnerMap())
	}
	dataDrive := disk.New(disk.DefaultGeometry(opts.Capacity), clock, opts.DiskMode, diskOpts...)
	// "SQL was given a dedicated log and data drive" (§4.1).
	logDrive := disk.New(disk.DefaultGeometry(2*units.GB), clock, disk.MetadataMode)
	s := &DBStore{
		eng:      db.Open(dataDrive, logDrive, db.Config{WriteRequestSize: opts.WriteRequestSize}),
		clock:    clock,
		locks:    blob.NewKeyLocks(),
		tags:     make(map[string]uint32),
		inflight: make(map[string]bool),
	}
	s.committer = blob.NewGroupCommitter(opts.GroupCommitBatch, opts.GroupCommitDelay,
		s.beginGroup, s.endGroup)
	s.committer.SetOpenWriters(s.openWriters)
	if opts.CommitObserver != nil {
		s.committer.SetObserver(clock, opts.CommitObserver)
	}
	return s, nil
}

// beginGroup starts deferring the engine's per-transaction log forces.
func (s *DBStore) beginGroup() {
	s.mu.Lock()
	s.eng.BeginGroup()
	s.mu.Unlock()
}

// endGroup forces the accumulated log records in one sequential write —
// the group force.
func (s *DBStore) endGroup() {
	s.mu.Lock()
	s.eng.EndGroup()
	s.mu.Unlock()
}

// openWriters is the commit pipeline's sibling count: every writer
// holding an uncommitted claim, whether or not its commit is queued.
func (s *DBStore) openWriters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Close shuts down the group-commit pipeline. The store stays usable;
// later commits apply synchronously.
func (s *DBStore) Close() error {
	s.committer.Close()
	return nil
}

// CommitStats returns the group-commit pipeline counters.
func (s *DBStore) CommitStats() blob.CommitStats { return s.committer.Stats() }

// Name implements blob.Store.
func (s *DBStore) Name() string { return "database" }

// Engine exposes the underlying database for analysis tools.
func (s *DBStore) Engine() *db.Database { return s.eng }

// Clock implements blob.Store.
func (s *DBStore) Clock() *vclock.Clock { return s.clock }

// Open implements blob.Store.
func (s *DBStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.locks.RLock(key)
	defer s.locks.RUnlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := s.stat(ctx, key)
	if err != nil {
		return nil, err
	}
	r := dbReaderPool.Get().(*dbReader)
	*r = dbReader{s: s, ctx: ctx, key: key, size: size, tag: s.eng.Tag(key)}
	return r, nil
}

// dbReader is a read handle pinned to one object version: every write
// stamps a fresh owner tag, so a tag mismatch means the version opened
// was replaced (or deleted) and reads fail with ErrNotFound, matching
// the filesystem backend. Handles are pooled; Close retires them.
type dbReader struct {
	s      *DBStore
	ctx    context.Context
	key    string
	size   int64
	tag    uint32
	closed bool
}

// dbReaderPool recycles read handles across Opens.
var dbReaderPool = sync.Pool{New: func() any { return new(dbReader) }}

// Size implements blob.Reader.
func (r *dbReader) Size() int64 { return r.size }

func (r *dbReader) check() error {
	if r.closed {
		return fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	return r.ctx.Err()
}

// validate confirms the opened version is still live (callers hold
// r.s.mu). Tag lookups are free of simulated cost.
func (r *dbReader) validate() error {
	if cur := r.s.eng.Tag(r.key); cur != r.tag {
		return fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
	}
	return nil
}

// ReadAll implements blob.Reader.
func (r *dbReader) ReadAll() ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	r.s.locks.RLock(r.key)
	defer r.s.locks.RUnlock(r.key)
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r.s.eng.Get(r.key)
}

// ReadAt implements blob.Reader.
func (r *dbReader) ReadAt(off, length int64) ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	r.s.locks.RLock(r.key)
	defer r.s.locks.RUnlock(r.key)
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r.s.eng.GetRange(r.key, off, length)
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool; later Closes on the same handle are no-ops.
func (r *dbReader) Close() error {
	if !r.closed {
		r.closed = true
		dbReaderPool.Put(r)
	}
	return nil
}

// Create implements blob.Store.
func (s *DBStore) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, false)
}

// Replace implements blob.Store: the transactional counterpart of the
// filesystem safe write.
func (s *DBStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, true)
}

func (s *DBStore) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: write of %d bytes to %s", blob.ErrInvalidSize, size, key)
	}
	s.locks.Lock(key)
	defer s.locks.Unlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return nil, fmt.Errorf("%w: %s", blob.ErrBusy, key)
	}
	if !replace {
		if s.eng.Has(key) {
			return nil, fmt.Errorf("%w: %s", blob.ErrAlreadyExists, key)
		}
	}
	s.inflight[key] = true
	w := dbWriterPool.Get().(*dbWriter)
	apply := w.apply
	*w = dbWriter{s: s, ctx: ctx, key: key,
		state: blob.NewStreamState(key, size), size: size, replace: replace, buf: w.buf[:0]}
	if apply == nil {
		apply = w.commitApply
	}
	w.apply = apply
	return w, nil
}

// dbWriter buffers one object version client-side and commits it in a
// single engine transaction. Writers are pooled (the payload buffer's
// capacity rides along); a successful Commit or an Abort retires the
// handle.
type dbWriter struct {
	s       *DBStore
	ctx     context.Context
	key     string
	state   blob.StreamState
	size    int64
	buf     []byte
	replace bool
	apply   func() error // cached commitApply method value
}

// dbWriterPool recycles write handles across commits.
var dbWriterPool = sync.Pool{New: func() any { return new(dbWriter) }}

// retire returns a finished (committed or aborted) writer to the pool.
func (w *dbWriter) retire() {
	apply, buf := w.apply, w.buf[:0]
	*w = dbWriter{apply: apply, buf: buf}
	w.state.Close()
	dbWriterPool.Put(w)
}

// Append implements blob.Writer. One stream is all-payload or
// all-metadata; mixing is refused so the retained payload can never be
// silently partial.
func (w *dbWriter) Append(n int64, data []byte) error {
	if err := w.state.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	if data != nil {
		w.buf = append(w.buf, data...)
	}
	w.state.NoteAppended(n)
	return nil
}

// Write implements io.Writer over Append.
func (w *dbWriter) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Commit implements blob.Writer: one implicit engine transaction writes
// the BLOB (chunked to the configured request size internally), inserts
// or updates the row, and ghosts any old pages. The commit rides the
// store's group-commit pipeline: with batching enabled its log record
// is forced together with the rest of its batch in one sequential
// write, and the error that comes back is this writer's own.
func (w *dbWriter) Commit() error {
	if err := w.state.BeginCommit(w.ctx); err != nil {
		return err
	}
	err := w.s.committer.Do(w.apply)
	if err == nil {
		// Only a successful commit retires the handle: after a failed
		// apply the writer stays open for Abort.
		w.retire()
	}
	return err
}

// commitApply performs the engine transaction of one commit, with the
// log force deferred to the surrounding batch.
func (w *dbWriter) commitApply() error {
	w.s.locks.Lock(w.key)
	defer w.s.locks.Unlock(w.key)
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	var data []byte
	if w.state.WithData() {
		data = w.buf
	}
	var old int64
	existed := false
	if w.replace {
		if sz, err := w.s.eng.Stat(w.key); err == nil {
			old, existed = sz, true
		}
		if err := w.s.eng.Replace(w.key, w.size, data); err != nil {
			return err
		}
	} else {
		if err := w.s.eng.Put(w.key, w.size, data); err != nil {
			return err
		}
	}
	if existed {
		w.s.liveBytes -= old
	}
	w.s.liveBytes += w.size
	w.s.tags[w.key] = w.s.eng.Tag(w.key)
	delete(w.s.inflight, w.key)
	w.state.Close()
	return nil
}

// Abort implements blob.Writer: nothing reached the engine, so the
// previous version is untouched by construction.
func (w *dbWriter) Abort() error {
	if w.state.Closed() {
		return nil
	}
	w.s.locks.Lock(w.key)
	defer w.s.locks.Unlock(w.key)
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	delete(w.s.inflight, w.key)
	w.state.Close()
	w.retire()
	return nil
}

// Delete implements blob.Store.
func (s *DBStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.locks.Lock(key)
	defer s.locks.Unlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := s.eng.Stat(key)
	if err != nil {
		return err
	}
	if err := s.eng.Delete(key); err != nil {
		return err
	}
	s.liveBytes -= old
	delete(s.tags, key)
	return nil
}

// Stat implements blob.Store.
func (s *DBStore) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := ctx.Err(); err != nil {
		return blob.Info{}, err
	}
	s.locks.RLock(key)
	defer s.locks.RUnlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := s.stat(ctx, key)
	if err != nil {
		return blob.Info{}, err
	}
	return blob.Info{Key: key, Size: size, Version: uint64(s.eng.Tag(key))}, nil
}

// stat is the engine's row probe, free of its charge under blob.Resume.
func (s *DBStore) stat(ctx context.Context, key string) (int64, error) {
	if blob.Resumed(ctx) {
		if size, ok := s.eng.Size(key); ok {
			return size, nil
		}
	}
	return s.eng.Stat(key)
}

// Keys implements blob.Store.
func (s *DBStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Keys()
}

// ObjectCount implements blob.Store.
func (s *DBStore) ObjectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.ObjectCount()
}

// LiveBytes implements blob.Store.
func (s *DBStore) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// FreeBytes implements blob.Store.
func (s *DBStore) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.FreeBytes()
}

// CapacityBytes implements blob.Store.
func (s *DBStore) CapacityBytes() int64 { return s.eng.CapacityBytes() }

// EachObjectRuns implements frag.Source.
func (s *DBStore) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.EachObject(fn)
}

// EachObjectTag implements frag.TagSource.
func (s *DBStore) EachObjectTag(fn func(key string, tag uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, tag := range s.tags {
		fn(k, tag)
	}
}

var _ blob.Store = (*DBStore)(nil)

package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/fs"
	"repro/internal/vclock"
)

// The paper's two configurations differ in one place: how an object
// version is staged and published — a temp file, a force and an atomic
// rename on the filesystem (§4.1), one bulk-logged BLOB transaction in
// the database (§4.2). store is everything else, written once: the
// blob.Store frames with their typed-error ladder, one engine mutex, the
// one-writer-per-key claims, live- and retired-byte accounting, the
// group-commit pipeline and the pooled read and write handles. FileStore
// and DBStore embed a store and implement engine.
//
// Locking: engine methods run with mu held. The exception is write,
// which takes mu itself once per write request.

// engine is what one backend does differently.
type engine interface {
	// open returns the live version of key for Open: its size and tag.
	// charged is false under blob.Resume, whose open was paid for already.
	open(key string, charged bool) (size int64, tag uint32, err error)
	// stat is open for Stat.
	stat(key string, charged bool) (size int64, tag uint32, err error)
	// exists is Create's probe of key.
	exists(key string) bool
	// read reads version tag of key, whole or length bytes at off; live
	// is false when tag is no longer key's live version.
	read(key string, tag uint32, whole bool, off, length int64) (data []byte, live bool, err error)

	// stage prepares w, fresh from newWriter, for its appends.
	stage(w *writer) error
	// write appends n bytes of w's stream, already validated.
	write(w *writer, n int64, data []byte) error
	// publish makes w's version live under its key, returning the size
	// of the version it replaced (0 for none).
	publish(w *writer) (old int64, err error)
	// discard drops an aborted w's staged bytes.
	discard(w *writer)

	// remove deletes key, returning its size.
	remove(key string) (int64, error)
	// compact rewrites key into contiguous space, returning bytes moved.
	compact(key string) (int64, error)
	// beginGroup and endGroup bracket one group-commit batch.
	beginGroup()
	endGroup()

	keys() []string
	// usage fills the engine's counts: objects, free bytes, capacity.
	usage() blob.Usage
	eachRuns(fn func(key string, bytes int64, runs []extent.Run))
	eachTag(fn func(key string, tag uint32))
}

// store is the skeleton both backends share.
type store struct {
	e         engine
	clock     *vclock.Clock
	committer *blob.GroupCommitter

	mu        sync.Mutex // guards the engine, the byte counts and inflight
	liveBytes int64
	retired   int64           // bytes of versions replaced or deleted
	inflight  map[string]bool // keys with an open writer

	// readers and writers recycle this store's handles; at high stream
	// counts the per-op handle allocation was a top-ten allocation site.
	// A released handle returns to the pool of the store that issued it,
	// so only that store's next Open or Create can hand it out again.
	readers, writers sync.Pool
}

// init wires s to its engine and its commit pipeline.
func (s *store) init(e engine, clock *vclock.Clock, opts blob.Options) {
	s.e, s.clock = e, clock
	s.inflight = make(map[string]bool)
	s.readers.New = func() any { return new(reader) }
	s.writers.New = func() any { return new(writer) }
	s.committer = blob.NewGroupCommitter(opts.GroupCommitBatch, opts.GroupCommitDelay,
		func() { s.mu.Lock(); e.beginGroup(); s.mu.Unlock() },
		func() { s.mu.Lock(); e.endGroup(); s.mu.Unlock() })
	// The commit pipeline's sibling count: every writer holding an
	// open claim, whether or not its commit is queued.
	s.committer.SetOpenWriters(func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.inflight)
	})
	if opts.CommitObserver != nil {
		s.committer.SetObserver(clock, opts.CommitObserver)
	}
}

// CommitStats returns the group-commit pipeline counters.
func (s *store) CommitStats() blob.CommitStats { return s.committer.Stats() }

// Clock implements blob.Store.
func (s *store) Clock() *vclock.Clock { return s.clock }

// Open implements blob.Store.
func (s *store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, tag, err := s.e.open(key, !blob.Resumed(ctx))
	if err != nil {
		return nil, err
	}
	r := s.readers.Get().(*reader)
	*r = reader{s: s, ctx: ctx, key: key, size: size, tag: tag}
	return r, nil
}

// reader is a read handle pinned to one object version by its owner
// tag: every new version of a key — a replace, a delete and re-create, a
// relocation — carries a fresh tag, so a mismatch means the version
// opened is gone and reads fail with ErrNotFound. Close retires the
// handle to its store's pool.
type reader struct {
	s      *store
	ctx    context.Context
	key    string
	size   int64
	tag    uint32
	closed bool
}

// Size implements blob.Reader.
func (r *reader) Size() int64 { return r.size }

// ReadAll implements blob.Reader.
func (r *reader) ReadAll() ([]byte, error) { return r.read(true, 0, 0) }

// ReadAt implements blob.Reader.
func (r *reader) ReadAt(off, length int64) ([]byte, error) { return r.read(false, off, length) }

func (r *reader) read(whole bool, off, length int64) ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	// The bounds are the pinned version's: checked before liveness, as
	// a remote reader, which knows only the size, checks them. length >
	// size-off rather than off+length > size: the sum can overflow.
	if !whole && (off < 0 || length < 0 || off > r.size || length > r.size-off) {
		return nil, fmt.Errorf("%w: [%d,+%d) of %s (size %d)", blob.ErrOutOfRange, off, length, r.key, r.size)
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	data, live, err := r.s.e.read(r.key, r.tag, whole, off, length)
	if !live {
		return nil, fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
	}
	return data, err
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool; later Closes on the same handle are no-ops.
func (r *reader) Close() error {
	if !r.closed {
		r.closed = true
		r.s.readers.Put(r)
	}
	return nil
}

// Create implements blob.Store.
func (s *store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, false)
}

// Replace implements blob.Store: a streaming safe write (§4).
func (s *store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, true)
}

// newWriter claims key for one writer and has the engine stage it.
func (s *store) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: write of %d bytes to %s", blob.ErrInvalidSize, size, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return nil, fmt.Errorf("%w: %s", blob.ErrBusy, key)
	}
	if !replace && s.e.exists(key) {
		return nil, fmt.Errorf("%w: %s", blob.ErrAlreadyExists, key)
	}
	w := s.writers.Get().(*writer)
	*w = writer{s: s, ctx: ctx, key: key, state: blob.NewStreamState(key, size),
		size: size, replace: replace, buf: w.buf, apply: w.apply}
	if err := s.e.stage(w); err != nil {
		w.retire()
		return nil, err
	}
	if w.apply == nil {
		// Bind the commit closure once per pooled instance; the method
		// value pins w itself, so it stays correct across reuses and
		// saves a closure allocation per commit.
		w.apply = w.commitApply
	}
	s.inflight[key] = true
	return w, nil
}

// writer streams one object version. A successful Commit or an Abort
// retires the handle to its store's pool (its stream state stays closed
// until the store hands it to a new Create/Replace); after a failed
// Commit it stays open for Abort.
type writer struct {
	s       *store
	ctx     context.Context
	key     string
	state   blob.StreamState
	size    int64 // declared total
	replace bool
	apply   func() error // cached commitApply method value

	tmp string   // filesystem: the safe-write temp file's name
	f   *fs.File // filesystem: the temp file
	buf []byte   // database: the payload, buffered client-side until Commit
}

// retire returns a finished writer to the pool; the payload buffer's
// capacity rides along.
func (w *writer) retire() {
	*w = writer{s: w.s, apply: w.apply, buf: w.buf[:0]}
	w.state.Close()
	w.s.writers.Put(w)
}

// Append implements blob.Writer.
func (w *writer) Append(n int64, data []byte) error {
	if err := w.state.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	return w.s.e.write(w, n, data)
}

// Write implements io.Writer over Append.
func (w *writer) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Commit implements blob.Writer: the atomic publish point. The commit
// rides the store's group-commit pipeline — with batching enabled it
// shares one force with the rest of its batch, which it may lead; the
// error that comes back is this writer's own.
func (w *writer) Commit() error {
	if err := w.state.BeginCommit(w.ctx); err != nil {
		return err
	}
	err := w.s.committer.Do(w.apply)
	if err == nil {
		w.retire()
	}
	return err
}

// commitApply performs the publish work of one commit, with the
// per-commit forces deferred to the surrounding batch.
func (w *writer) commitApply() error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := s.e.publish(w)
	if err != nil {
		return err
	}
	s.liveBytes += w.size - old
	s.retired += old
	delete(s.inflight, w.key)
	w.state.Close()
	return nil
}

// Abort implements blob.Writer: the previous version is untouched.
func (w *writer) Abort() error {
	if w.state.Closed() {
		return nil
	}
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.discard(w)
	delete(s.inflight, w.key)
	w.retire()
	return nil
}

// Delete implements blob.Store.
func (s *store) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := s.e.remove(key)
	if err != nil {
		return err
	}
	s.liveBytes -= size
	s.retired += size
	return nil
}

// Stat implements blob.Store.
func (s *store) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := ctx.Err(); err != nil {
		return blob.Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, tag, err := s.e.stat(key, !blob.Resumed(ctx))
	if err != nil {
		return blob.Info{}, err
	}
	return blob.Info{Key: key, Size: size, Version: uint64(tag)}, nil
}

// CompactObject implements blob.Rewriter for the online compactor
// (internal/compact): it rewrites one fragmented object into (as)
// contiguous space (as the allocator allows) and publishes it as a fresh
// version, so readers pinned to the old layout fail typed instead of
// reading relocated bytes. The rewrite rides the group-commit pipeline
// and charges full read+write disk cost. It returns the bytes moved: 0
// when the object is already contiguous or could not be placed. A key
// with an open writer fails with blob.ErrBusy so the compactor
// can skip and retry later.
func (s *store) CompactObject(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var moved int64
	err := s.committer.Do(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.inflight[key] {
			return fmt.Errorf("%w: writer in flight on %s", blob.ErrBusy, key)
		}
		var err error
		moved, err = s.e.compact(key)
		return err
	})
	return moved, err
}

// Keys implements blob.Store.
func (s *store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.keys()
}

// Usage implements blob.Store in one hold of mu. A relocation — a
// compaction rewrite — retires nothing: the version stays live.
func (s *store) Usage() blob.Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.e.usage()
	u.LiveBytes, u.RetiredBytes = s.liveBytes, s.retired
	return u
}

// ObjectCount implements blob.Store, kept only because bench/ calls it (until J).
func (s *store) ObjectCount() int { return s.Usage().Objects }

// LiveBytes implements blob.Store, kept only because bench/ calls it (until J).
func (s *store) LiveBytes() int64 { return s.Usage().LiveBytes }

// EachObjectRuns implements frag.Source.
func (s *store) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.eachRuns(fn)
}

// EachObjectTag implements frag.TagSource.
func (s *store) EachObjectTag(fn func(key string, tag uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e.eachTag(fn)
}

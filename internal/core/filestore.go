package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/fs"
	"repro/internal/units"
	"repro/internal/vclock"
)

// FileStore is the paper's file-based configuration (§4.1) behind the v2
// blob.Store API: each object in its own file on a dedicated NTFS-analog
// volume, with object names and metadata in database tables. The
// database isolates clients from physical location; here it charges the
// metadata costs of that design.
//
// Writers stream: Create/Replace open a temporary file, appends flow to
// the allocator in request-sized chunks, and Commit forces the data and
// atomically renames over the permanent file — the paper's safe-write
// protocol (§4) driven through a handle instead of one buffer. With
// blob.WithGroupCommit, Commit enqueues onto the store's commit queue
// and a batcher coalesces pending safe writes: each batch forces the
// volume's metadata (coalesced MFT writes, one log flush) and the
// metadata database's log once instead of per commit.
//
// The store is safe for concurrent callers: per-key striped locks order
// operations on the same key, and an internal mutex serializes access to
// the single-threaded volume and metadata engines beneath.
type FileStore struct {
	vol    *fs.Volume
	meta   *db.MetaTable
	metaDB *db.Database
	clock  *vclock.Clock
	opts   blob.Options

	locks     *blob.KeyLocks
	committer *blob.GroupCommitter

	mu        sync.Mutex // guards vol, meta, liveBytes, inflight, crashes
	liveBytes int64
	inflight  map[string]bool // keys with an uncommitted writer
	crashes   map[string]bool // keys armed to crash at the next commit
	packCrash bool            // next PackObjects crashes mid-pack
}

// NewFileStore builds a file-backed store on a fresh simulated drive
// pair sharing clock. blob.WithCapacity is required; misconfiguration
// fails with blob.ErrBadOption.
func NewFileStore(clock *vclock.Clock, options ...blob.Option) (*FileStore, error) {
	opts := blob.NewOptions(options...)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: NewFileStore: %w", err)
	}
	if opts.WriteRequestSize == 0 {
		opts.WriteRequestSize = 64 * units.KB
	}
	var diskOpts []disk.Option
	if opts.NoOwnerMap {
		diskOpts = append(diskOpts, disk.WithoutOwnerMap())
	}
	dataDrive := disk.New(disk.DefaultGeometry(opts.Capacity), clock, opts.DiskMode, diskOpts...)
	vol := fs.Format(dataDrive, fs.Config{DelayedAllocation: opts.DelayedAllocation})
	// Metadata database on its own drive pair, as the paper's deployment
	// gave SQL Server dedicated drives (§4.1).
	metaData := disk.New(disk.DefaultGeometry(1*units.GB), clock, disk.MetadataMode)
	metaLog := disk.New(disk.DefaultGeometry(256*units.MB), clock, disk.MetadataMode)
	metaDB := db.Open(metaData, metaLog, db.Config{})
	s := &FileStore{
		vol:      vol,
		meta:     metaDB.NewMetaTable("objects"),
		metaDB:   metaDB,
		clock:    clock,
		opts:     opts,
		locks:    blob.NewKeyLocks(),
		inflight: make(map[string]bool),
		crashes:  make(map[string]bool),
	}
	s.committer = blob.NewGroupCommitter(opts.GroupCommitBatch, opts.GroupCommitDelay,
		s.beginGroup, s.endGroup)
	s.committer.SetOpenWriters(s.openWriters)
	if opts.CommitObserver != nil {
		s.committer.SetObserver(clock, opts.CommitObserver)
	}
	return s, nil
}

// beginGroup opens a batch on both engines: the volume defers MFT
// writes and its log flush, the metadata database defers log forces.
func (s *FileStore) beginGroup() {
	s.mu.Lock()
	s.vol.BeginBatch()
	s.metaDB.BeginGroup()
	s.mu.Unlock()
}

// endGroup issues the group force: coalesced MFT writes plus at most
// one volume log flush, and one metadata-database log write.
func (s *FileStore) endGroup() {
	s.mu.Lock()
	s.vol.EndBatch()
	s.metaDB.EndGroup()
	s.mu.Unlock()
}

// openWriters is the commit pipeline's sibling count: every writer
// holding an uncommitted claim, whether or not its commit is queued.
func (s *FileStore) openWriters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Close shuts down the group-commit pipeline. The store stays usable;
// later commits apply synchronously.
func (s *FileStore) Close() error {
	s.committer.Close()
	return nil
}

// CommitStats returns the group-commit pipeline counters.
func (s *FileStore) CommitStats() blob.CommitStats { return s.committer.Stats() }

// ArmCommitCrash makes key's next Commit crash after its data is
// written and forced but before the atomic rename — the safe-write
// protocol's CrashAfterWrite point — returning an error wrapping
// blob.ErrCrashed and leaving the temp file and writer claim behind,
// as a process death would. Call Recover afterwards, as a restarted
// application would. Intended for crash-recovery drills and tests.
func (s *FileStore) ArmCommitCrash(key string) {
	s.mu.Lock()
	s.crashes[key] = true
	s.mu.Unlock()
}

// Recover models post-crash restart: orphaned safe-write temp files are
// swept, orphan packs from a crash mid-pack have their clusters freed,
// the volume log is flushed, and all writer claims are released (a
// crash kills every in-flight stream). It returns the number of temp
// files removed.
func (s *FileStore) Recover() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.vol.Recover()
	clear(s.inflight)
	clear(s.crashes)
	s.packCrash = false
	return n
}

// Name implements blob.Store.
func (s *FileStore) Name() string { return "filesystem" }

// Volume exposes the underlying filesystem for analysis tools.
func (s *FileStore) Volume() *fs.Volume { return s.vol }

// Clock implements blob.Store.
func (s *FileStore) Clock() *vclock.Clock { return s.clock }

// Open implements blob.Store.
func (s *FileStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.locks.RLock(key)
	defer s.locks.RUnlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var f *fs.File
	if blob.Resumed(ctx) {
		f, _ = s.vol.Lookup(key) // the open was paid for already
	} else if s.meta.Lookup(key) {
		var err error
		if f, err = s.vol.Open(key); err != nil {
			return nil, err
		}
	}
	if f == nil {
		return nil, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	r := fileReaderPool.Get().(*fileReader)
	*r = fileReader{s: s, ctx: ctx, key: key, f: f, tag: f.Tag(), size: f.Size()}
	return r, nil
}

// fileReader is a read handle over one committed file version. Handles
// are pooled: Close retires the handle (it keeps returning ErrClosed
// until the pool hands it to a new Open). The pinned version is the
// (pointer, tag) pair — File structs are recycled by the volume, so the
// pointer alone could be resurrected under the same key.
type fileReader struct {
	s      *FileStore
	ctx    context.Context
	key    string
	f      *fs.File
	tag    uint32
	size   int64
	closed bool
}

// fileReaderPool recycles read handles; at high stream counts the
// per-read handle allocation was a top-ten allocation site.
var fileReaderPool = sync.Pool{New: func() any { return new(fileReader) }}

// Size implements blob.Reader.
func (r *fileReader) Size() int64 { return r.size }

// validate returns the current file iff the handle is live and still
// names the version opened. Callers hold r.s.mu.
func (r *fileReader) validate() (*fs.File, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	cur, ok := r.s.vol.Lookup(r.key)
	if !ok || cur != r.f || cur.Tag() != r.tag {
		return nil, fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
	}
	return cur, nil
}

// ReadAll implements blob.Reader.
func (r *fileReader) ReadAll() ([]byte, error) {
	r.s.locks.RLock(r.key)
	defer r.s.locks.RUnlock(r.key)
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	f, err := r.validate()
	if err != nil {
		return nil, err
	}
	return f.ReadAll(), nil
}

// ReadAt implements blob.Reader.
func (r *fileReader) ReadAt(off, length int64) ([]byte, error) {
	r.s.locks.RLock(r.key)
	defer r.s.locks.RUnlock(r.key)
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	f, err := r.validate()
	if err != nil {
		return nil, err
	}
	return f.ReadAt(off, length)
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool; later Closes on the same handle are no-ops.
func (r *fileReader) Close() error {
	if !r.closed {
		r.closed = true
		fileReaderPool.Put(r)
	}
	return nil
}

// Create implements blob.Store.
func (s *FileStore) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, false)
}

// Replace implements blob.Store: a streaming safe write (§4).
func (s *FileStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, true)
}

func (s *FileStore) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
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
	if _, exists := s.vol.Lookup(key); exists && !replace {
		return nil, fmt.Errorf("%w: %s", blob.ErrAlreadyExists, key)
	}
	tmp := fs.TempName(key)
	// A leftover temp from a previous crashed attempt is replaced.
	// Committed objects always have a metadata row and temps never do,
	// so a row under the temp name means a real object happens to be
	// named like our scratch file — leave it alone (the Create below
	// then fails instead of destroying it).
	if _, ok := s.vol.Lookup(tmp); ok && !s.meta.Lookup(tmp) {
		if err := s.vol.Delete(tmp); err != nil {
			return nil, err
		}
	}
	f, err := s.vol.Create(tmp)
	if err != nil {
		return nil, err
	}
	if s.opts.SizeHint {
		if err := f.SetSizeHint(size); err != nil {
			_ = s.vol.Delete(tmp)
			return nil, err
		}
	}
	f.ReservePayload(size)
	s.inflight[key] = true
	w := fileWriterPool.Get().(*fileWriter)
	apply := w.apply
	*w = fileWriter{s: s, ctx: ctx, key: key, tmp: tmp, f: f,
		state: blob.NewStreamState(key, size), size: size, replace: replace}
	if apply == nil {
		// Bind the commit closure once per pooled instance; the method
		// value pins w itself, so it stays correct across reuses and
		// saves a closure allocation per commit.
		apply = w.commitApply
	}
	w.apply = apply
	return w, nil
}

// fileWriter streams one safe write: appends land in a temp file in
// request-sized chunks; Commit closes (forcing the data) and atomically
// renames over the permanent file. Writers are pooled: a successful
// Commit or an Abort retires the handle (its stream state stays closed
// until the pool hands it to a new Create/Replace).
type fileWriter struct {
	s       *FileStore
	ctx     context.Context
	key     string
	tmp     string
	f       *fs.File
	state   blob.StreamState
	size    int64 // declared total
	replace bool
	apply   func() error // cached commitApply method value
}

// fileWriterPool recycles write handles across safe writes.
var fileWriterPool = sync.Pool{New: func() any { return new(fileWriter) }}

// retire returns a finished (committed or aborted) writer to the pool.
func (w *fileWriter) retire() {
	apply := w.apply
	*w = fileWriter{apply: apply}
	w.state.Close()
	fileWriterPool.Put(w)
}

// Append implements blob.Writer.
func (w *fileWriter) Append(n int64, data []byte) error {
	if err := w.state.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	// Each write request reaches the allocator separately — the paper's
	// §5.3 request granularity, now owned by the store.
	req := w.s.opts.WriteRequestSize
	if req <= 0 {
		req = n
	}
	for off := int64(0); off < n; off += req {
		if err := w.ctx.Err(); err != nil {
			return err
		}
		c := min(req, n-off)
		var chunk []byte
		if data != nil {
			chunk = data[off : off+c]
		}
		w.s.locks.Lock(w.key)
		w.s.mu.Lock()
		err := w.f.Append(c, chunk)
		w.s.mu.Unlock()
		w.s.locks.Unlock(w.key)
		if err != nil {
			return err
		}
		w.state.NoteAppended(c)
	}
	return nil
}

// Write implements io.Writer over Append.
func (w *fileWriter) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Commit implements blob.Writer: the atomic publish point. The commit
// rides the store's group-commit pipeline — with batching enabled it
// waits in the commit queue and shares one metadata force with the rest
// of its batch; the error that comes back is this writer's own.
func (w *fileWriter) Commit() error {
	if err := w.state.BeginCommit(w.ctx); err != nil {
		return err
	}
	err := w.s.committer.Do(w.apply)
	if err == nil {
		// Only a fully successful commit retires the handle: after a
		// failed apply the writer stays open for Abort.
		w.retire()
	}
	return err
}

// commitApply performs the publish work of one safe-write commit, with
// the per-commit metadata forces deferred to the surrounding batch.
func (w *fileWriter) commitApply() error {
	w.s.locks.Lock(w.key)
	defer w.s.locks.Unlock(w.key)
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	// Close forces the data (and performs allocation under delayed
	// allocation — the one step that can still run out of space).
	if err := w.f.Close(); err != nil {
		return err
	}
	if w.s.crashes[w.key] {
		// Armed simulated crash at the CrashAfterWrite protocol point:
		// data forced, rename never happens. The temp file and writer
		// claim stay behind for Recover to sweep, exactly as if the
		// process had died here.
		delete(w.s.crashes, w.key)
		return fmt.Errorf("%w after write of %s", blob.ErrCrashed, w.tmp)
	}
	old, hadOld := w.s.vol.Lookup(w.key)
	var oldSize int64
	if hadOld {
		oldSize = old.Size()
	}
	// Metadata first: the row mutation is the step that can fail (meta
	// drive full), so it happens before anything becomes visible. On a
	// failure the writer stays open and Abort discards the temp.
	if hadOld {
		if err := w.s.meta.Update(w.key); err != nil {
			return err
		}
	} else {
		if err := w.s.meta.Insert(w.key); err != nil {
			return err
		}
	}
	// Atomic commit point (ReplaceFile/rename(2) semantics). Rename of
	// a held temp cannot legitimately fail; roll the row back if it
	// somehow does — the synchronization burden §3.1 calls out.
	if err := w.s.vol.Rename(w.tmp, w.key); err != nil {
		if !hadOld {
			_ = w.s.meta.Delete(w.key)
		}
		return err
	}
	if hadOld {
		w.s.liveBytes -= oldSize
	}
	w.s.liveBytes += w.size
	delete(w.s.inflight, w.key)
	w.state.Close()
	return nil
}

// Abort implements blob.Writer: the previous version is untouched.
func (w *fileWriter) Abort() error {
	if w.state.Closed() {
		return nil
	}
	w.s.locks.Lock(w.key)
	defer w.s.locks.Unlock(w.key)
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if _, ok := w.s.vol.Lookup(w.tmp); ok {
		_ = w.s.vol.Delete(w.tmp)
	}
	delete(w.s.inflight, w.key)
	w.state.Close()
	w.retire()
	return nil
}

// Delete implements blob.Store.
func (s *FileStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.locks.Lock(key)
	defer s.locks.Unlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.vol.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	size := f.Size()
	if err := s.vol.Delete(key); err != nil {
		return err
	}
	if err := s.meta.Delete(key); err != nil {
		return err
	}
	s.liveBytes -= size
	return nil
}

// Stat implements blob.Store.
func (s *FileStore) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := ctx.Err(); err != nil {
		return blob.Info{}, err
	}
	s.locks.RLock(key)
	defer s.locks.RUnlock(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.vol.Lookup(key)
	if !ok {
		return blob.Info{}, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	return blob.Info{Key: key, Size: f.Size(), Version: uint64(f.Tag())}, nil
}

// Keys implements blob.Store.
func (s *FileStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := s.vol.Names()
	out := names[:0]
	for _, n := range names {
		if !s.inflightTemp(n) {
			out = append(out, n)
		}
	}
	return out
}

// inflightTemp reports whether name is the temp file of an uncommitted
// writer (callers hold s.mu).
func (s *FileStore) inflightTemp(name string) bool {
	if len(name) <= len(fs.TempSuffix) || name[len(name)-len(fs.TempSuffix):] != fs.TempSuffix {
		return false
	}
	return s.inflight[name[:len(name)-len(fs.TempSuffix)]]
}

// ObjectCount implements blob.Store.
func (s *FileStore) ObjectCount() int { return len(s.Keys()) }

// LiveBytes implements blob.Store.
func (s *FileStore) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// FreeBytes implements blob.Store.
func (s *FileStore) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vol.FreeBytes()
}

// CapacityBytes implements blob.Store.
func (s *FileStore) CapacityBytes() int64 { return s.vol.CapacityBytes() }

// EachObjectRuns implements frag.Source.
func (s *FileStore) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vol.EachFile(func(f *fs.File) {
		if !s.inflightTemp(f.Name()) {
			fn(f.Name(), f.Size(), f.Runs())
		}
	})
}

// EachObjectTag implements frag.TagSource.
func (s *FileStore) EachObjectTag(fn func(key string, tag uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vol.EachFile(func(f *fs.File) {
		if !s.inflightTemp(f.Name()) {
			fn(f.Name(), f.Tag())
		}
	})
}

var _ blob.Store = (*FileStore)(nil)

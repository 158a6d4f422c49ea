package core

import (
	"fmt"

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
// blob.WithGroupCommit, concurrent commits are coalesced by whichever
// committing writer leads the batch: each batch forces the volume's
// metadata (coalesced MFT writes, one log flush) and the metadata
// database's log once instead of per commit.
//
// The store is safe for concurrent callers: one internal mutex
// serializes access to the single-threaded volume and metadata engines
// beneath, and a key has at most one open writer.
type FileStore struct {
	store
	vol    *fs.Volume
	meta   *db.MetaTable
	metaDB *db.Database
	opts   blob.Options

	// Guarded by mu.
	crashes map[string]bool // keys armed to crash at the next commit
	objects int             // published files: +1 on a first publish, -1 on a remove
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
		opts.WriteRequestSize = blob.DefaultWriteRequestSize
	}
	var diskOpts []disk.Option
	if opts.OwnerMap {
		diskOpts = append(diskOpts, disk.WithOwnerMap())
	}
	dataDrive := disk.New(disk.DefaultGeometry(opts.Capacity), clock, opts.DiskMode, diskOpts...)
	vol := fs.Format(dataDrive, fs.Config{DelayedAllocation: opts.DelayedAllocation})
	// Metadata database on its own drive pair, as the paper's deployment
	// gave SQL Server dedicated drives (§4.1).
	metaData := disk.New(disk.DefaultGeometry(1*units.GB), clock, disk.MetadataMode)
	metaLog := disk.New(disk.DefaultGeometry(256*units.MB), clock, disk.MetadataMode)
	metaDB := db.Open(metaData, metaLog, db.Config{})
	s := &FileStore{
		vol:     vol,
		meta:    metaDB.NewMetaTable(),
		metaDB:  metaDB,
		opts:    opts,
		crashes: make(map[string]bool),
	}
	s.init(s, clock, opts)
	return s, nil
}

// ArmCommitCrash makes key's next Commit crash after its data is
// written and forced but before the atomic rename, returning an error
// wrapping blob.ErrCrashed and leaving the temp file and writer claim
// behind, as a process death would. Call Recover afterwards, as a
// restarted application would. Intended for crash-recovery drills and
// tests.
func (s *FileStore) ArmCommitCrash(key string) {
	s.mu.Lock()
	s.crashes[key] = true
	s.mu.Unlock()
}

// Recover models post-crash restart: orphaned safe-write temp files are
// swept, the volume log is flushed, and all writer claims are released
// (a crash kills every in-flight stream). It returns the number of temp
// files removed.
func (s *FileStore) Recover() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.vol.Recover()
	clear(s.inflight)
	clear(s.crashes)
	return n
}

// Name implements blob.Store.
func (s *FileStore) Name() string { return "filesystem" }

// Volume exposes the underlying filesystem for analysis tools.
func (s *FileStore) Volume() *fs.Volume { return s.vol }

// --- engine ---

// open charges the metadata-row lookup and the file open, unless resumed.
func (s *FileStore) open(key string, charged bool) (int64, uint32, error) {
	if !charged {
		return s.stat(key, false)
	}
	s.meta.Lookup()
	f, err := s.vol.Open(fs.FileName(key))
	if err != nil {
		return 0, 0, err
	}
	return f.Size(), f.Tag(), nil
}

// stat is free: the volume's in-memory file table.
func (s *FileStore) stat(key string, _ bool) (int64, uint32, error) {
	f, ok := s.vol.Lookup(fs.FileName(key))
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	return f.Size(), f.Tag(), nil
}

func (s *FileStore) exists(key string) bool {
	_, ok := s.vol.Lookup(fs.FileName(key))
	return ok
}

// read compares owner tags, not File pointers: the volume recycles File
// structs, but stamps a fresh tag on every create and relocation.
func (s *FileStore) read(key string, tag uint32, whole bool, off, length int64) ([]byte, bool, error) {
	f, ok := s.vol.Lookup(fs.FileName(key))
	if !ok || f.Tag() != tag {
		return nil, false, nil
	}
	if whole {
		return f.ReadAll(), true, nil
	}
	data, err := f.ReadAt(off, length)
	return data, true, err
}

// stage opens w's safe-write temp file.
func (s *FileStore) stage(w *writer) error {
	w.tmp = fs.TempName(fs.FileName(w.key))
	// A leftover temp from a previous crashed attempt is replaced; no
	// key's file can carry a temp name.
	if _, ok := s.vol.Lookup(w.tmp); ok {
		if err := s.vol.Delete(w.tmp); err != nil {
			return err
		}
	}
	f, err := s.vol.Create(w.tmp)
	if err != nil {
		return err
	}
	if s.opts.SizeHint {
		if err := f.SetSizeHint(w.size); err != nil {
			_ = s.vol.Delete(w.tmp)
			return err
		}
	}
	w.f = f
	return nil
}

// write hands the temp file one write request at a time — the paper's
// §5.3 request granularity, owned by the store — taking mu per
// request, so concurrent streams interleave at the allocator request by
// request. The retained payload buffer is sized once per writer Append,
// with the first request: by the bytes of the whole append, not of one
// request.
func (s *FileStore) write(w *writer, n int64, data []byte) error {
	req := s.opts.WriteRequestSize
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
		s.mu.Lock()
		if off == 0 && data != nil {
			w.f.ReservePayload(n, w.size)
		}
		err := w.f.Append(c, chunk)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		w.state.NoteAppended(c)
	}
	return nil
}

// publish closes the temp file (forcing the data) and renames it over
// the permanent file.
func (s *FileStore) publish(w *writer) (int64, error) {
	// Close performs allocation under delayed allocation — the one step
	// that can still run out of space.
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	if s.crashes[w.key] {
		// Armed simulated crash between write and rename: data
		// forced, rename never happens. The temp file and writer
		// claim stay behind for Recover to sweep, exactly as if the
		// process had died here.
		delete(s.crashes, w.key)
		return 0, fmt.Errorf("%w after write of %s", blob.ErrCrashed, w.tmp)
	}
	var old int64
	name := fs.FileName(w.key)
	prev, hadOld := s.vol.Lookup(name)
	// Metadata first: a row insert is the step that can fail (meta
	// drive full), so it happens before anything becomes visible. On a
	// failure the writer stays open and Abort discards the temp.
	if hadOld {
		old = prev.Size()
		s.meta.Update()
	} else if err := s.meta.Insert(); err != nil {
		return 0, err
	}
	// Atomic commit point (ReplaceFile/rename(2) semantics). Rename of
	// a held temp cannot legitimately fail; roll the row back if it
	// somehow does — the synchronization burden §3.1 calls out.
	if err := s.vol.Rename(w.tmp, name); err != nil {
		if !hadOld {
			s.meta.Delete()
		}
		return 0, err
	}
	if !hadOld {
		s.objects++
	}
	return old, nil
}

func (s *FileStore) discard(w *writer) {
	if _, ok := s.vol.Lookup(w.tmp); ok {
		_ = s.vol.Delete(w.tmp)
	}
}

func (s *FileStore) remove(key string) (int64, error) {
	f, ok := s.vol.Lookup(fs.FileName(key))
	if !ok {
		return 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	size := f.Size()
	if err := s.vol.Delete(f.Name()); err != nil {
		return 0, err
	}
	s.meta.Delete()
	s.objects--
	return size, nil
}

// compact moves key's file into contiguous space; 0 bytes when it is
// already contiguous or could not be placed.
func (s *FileStore) compact(key string) (int64, error) {
	name := fs.FileName(key)
	if _, ok := s.vol.Lookup(name); !ok {
		return 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	n, ok := s.vol.CompactFile(name)
	if !ok {
		return 0, nil
	}
	// The relocation is a row update in the metadata database — the
	// isolation from physical location the paper's design buys.
	s.meta.Update()
	return n, nil
}

// beginGroup opens a batch on both engines: the volume defers MFT
// writes and its log flush, the metadata database defers log forces.
func (s *FileStore) beginGroup() {
	s.vol.BeginBatch()
	s.metaDB.BeginGroup()
}

// endGroup issues the group force: coalesced MFT writes plus at most
// one volume log flush, and one metadata-database log write.
func (s *FileStore) endGroup() {
	s.vol.EndBatch()
	s.metaDB.EndGroup()
}

func (s *FileStore) usage() blob.Usage {
	return blob.Usage{Objects: s.objects, FreeBytes: s.vol.FreeBytes(), CapacityBytes: s.vol.CapacityBytes()}
}

// eachFile visits every published file with its key, skipping temps.
func (s *FileStore) eachFile(fn func(key string, f *fs.File)) {
	s.vol.EachFile(func(f *fs.File) {
		if !fs.IsTemp(f.Name()) {
			fn(fs.KeyOf(f.Name()), f)
		}
	})
}

func (s *FileStore) keys() (out []string) {
	s.eachFile(func(key string, _ *fs.File) { out = append(out, key) })
	return out
}

func (s *FileStore) eachRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.eachFile(func(key string, f *fs.File) { fn(key, f.Size(), f.Runs()) })
}

func (s *FileStore) eachTag(fn func(key string, tag uint32)) {
	s.eachFile(func(key string, f *fs.File) { fn(key, f.Tag()) })
}

var _ blob.Store = (*FileStore)(nil)

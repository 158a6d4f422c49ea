package core

import (
	"fmt"

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
// With blob.WithGroupCommit, concurrent commits are coalesced by
// whichever committing writer leads the batch: the engine forces its log
// ONCE per batch — one sequential write covering every record — instead
// of once per transaction, the §3.1 amortization.
//
// The store is safe for concurrent callers: one internal mutex
// serializes access to the single-threaded engine beneath, and a key has
// at most one open writer.
type DBStore struct {
	store
	eng *db.Database
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
	if opts.OwnerMap {
		diskOpts = append(diskOpts, disk.WithOwnerMap())
	}
	dataDrive := disk.New(disk.DefaultGeometry(opts.Capacity), clock, opts.DiskMode, diskOpts...)
	// "SQL was given a dedicated log and data drive" (§4.1).
	logDrive := disk.New(disk.DefaultGeometry(2*units.GB), clock, disk.MetadataMode)
	s := &DBStore{eng: db.Open(dataDrive, logDrive, db.Config{WriteRequestSize: opts.WriteRequestSize})}
	s.init(s, clock, opts)
	return s, nil
}

// Name implements blob.Store.
func (s *DBStore) Name() string { return "database" }

// Engine exposes the underlying database for analysis tools.
func (s *DBStore) Engine() *db.Database { return s.eng }

// CapacityBytes implements blob.Store.
func (s *DBStore) CapacityBytes() int64 { return s.eng.CapacityBytes() }

// --- engine ---

// open is the engine's row probe, free of its charge when not charged.
func (s *DBStore) open(key string, charged bool) (int64, uint32, error) {
	size, ok := s.eng.Size(key)
	if charged || !ok {
		var err error
		if size, err = s.eng.Stat(key); err != nil {
			return 0, 0, err
		}
	}
	return size, s.eng.Tag(key), nil
}

// stat charges what open does: both are the row probe.
func (s *DBStore) stat(key string, charged bool) (int64, uint32, error) {
	return s.open(key, charged)
}

func (s *DBStore) exists(key string) bool { return s.eng.Has(key) }

// read compares tags, which cost nothing: every write stamps a fresh one.
func (s *DBStore) read(key string, tag uint32, whole bool, off, length int64) (data []byte, live bool, err error) {
	if s.eng.Tag(key) != tag {
		return nil, false, nil
	}
	if whole {
		data, err = s.eng.Get(key)
	} else {
		data, err = s.eng.GetRange(key, off, length)
	}
	return data, true, err
}

// stage has nothing to do: nothing reaches the engine before Commit.
func (s *DBStore) stage(*writer) error { return nil }

// write buffers the appended payload.
func (s *DBStore) write(w *writer, n int64, data []byte) error {
	if data != nil {
		w.buf = append(w.buf, data...)
	}
	w.state.NoteAppended(n)
	return nil
}

// publish is one implicit engine transaction: it writes the BLOB
// (chunked to the configured request size internally), inserts or
// updates the row, and ghosts any old pages. With batching enabled its
// log record is forced together with the rest of its batch.
func (s *DBStore) publish(w *writer) (int64, error) {
	var data []byte
	if w.state.WithData() {
		data = w.buf
	}
	if !w.replace {
		return 0, s.eng.Put(w.key, w.size, data)
	}
	old, _ := s.eng.Stat(w.key) // 0 when w creates the key
	if err := s.eng.Replace(w.key, w.size, data); err != nil {
		return 0, err
	}
	return old, nil
}

// discard has nothing to undo: the buffer goes back with the writer.
func (s *DBStore) discard(*writer) {}

func (s *DBStore) remove(key string) (int64, error) {
	size, err := s.eng.Stat(key)
	if err != nil {
		return 0, err
	}
	return size, s.eng.Delete(key)
}

// compact is the engine's re-append compaction, a new version under a
// fresh tag when it moves anything.
func (s *DBStore) compact(key string) (int64, error) { return s.eng.Compact(key) }

// beginGroup starts deferring the engine's per-transaction log forces;
// endGroup forces them in one sequential write — the group force.
func (s *DBStore) beginGroup() { s.eng.BeginGroup() }
func (s *DBStore) endGroup()   { s.eng.EndGroup() }

func (s *DBStore) free() int64    { return s.eng.FreeBytes() }
func (s *DBStore) keys() []string { return s.eng.Keys() }

func (s *DBStore) eachRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.eng.EachObject(fn)
}

// eachTag reads the owner tags off the engine's rows.
func (s *DBStore) eachTag(fn func(key string, tag uint32)) {
	for _, k := range s.eng.Keys() {
		fn(k, s.eng.Tag(k))
	}
}

var _ blob.Store = (*DBStore)(nil)

package conformance

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/blob"
)

// Model is the blob.Store contract written as a map: no layout, no
// clock, no code shared with the stores. Each method predicts the store
// operation of its name: the value and the sentinel error, nil for
// success. The caller numbers the handles.
type Model struct {
	objs    map[string]*object
	writers map[int]*stream
	readers map[int]*object // the version each reader opened, and whether it is closed
	next    int             // the last abstract version handed out
	retired int64           // bytes of the versions a commit replaced or a delete removed
}

// object is one committed version; data is nil for a stream of nil
// appends. A reader's copy records its Close in closed.
type object struct {
	key     string
	version int
	size    int64
	data    []byte
	closed  bool
}

// stream is one writer: what was declared and what was appended.
type stream struct {
	key           string
	size, written int64
	data          []byte
	meta, closed  bool // meta is fixed by the first append: nil data
}

// NewModel returns the model of an empty store.
func NewModel() *Model {
	return &Model{objs: map[string]*object{}, writers: map[int]*stream{}, readers: map[int]*object{}}
}

func (m *Model) writing(key string) bool {
	for _, w := range m.writers {
		if w.key == key && !w.closed {
			return true
		}
	}
	return false
}

// Begin predicts Create (create true) or Replace of size bytes to key,
// opening writer h on success.
func (m *Model) Begin(h int, key string, size int64, create bool) error {
	switch {
	case size <= 0:
		return blob.ErrInvalidSize
	case m.writing(key):
		return blob.ErrBusy
	case create && m.objs[key] != nil:
		return blob.ErrAlreadyExists
	}
	m.writers[h] = &stream{key: key, size: size}
	return nil
}

// Append predicts writer h's Append(n, data).
func (m *Model) Append(h int, n int64, data []byte) error {
	w := m.writers[h]
	switch {
	case w.closed:
		return blob.ErrClosed
	case data != nil && int64(len(data)) != n, n <= 0, n > w.size-w.written,
		w.written > 0 && w.meta != (data == nil):
		return blob.ErrInvalidSize
	}
	w.meta = data == nil
	w.written += n
	w.data = append(w.data, data...)
	return nil
}

// Commit predicts writer h's Commit. A refused commit leaves the
// writer open.
func (m *Model) Commit(h int) error {
	w := m.writers[h]
	switch {
	case w.closed:
		return blob.ErrClosed
	case w.written != w.size:
		return blob.ErrInvalidSize
	}
	w.closed = true
	if old := m.objs[w.key]; old != nil {
		m.retired += old.size
	}
	m.next++
	m.objs[w.key] = &object{key: w.key, version: m.next, size: w.size, data: w.data}
	return nil
}

// Abort predicts writer h's Abort: always nil, and the key is free.
func (m *Model) Abort(h int) error {
	m.writers[h].closed = true
	return nil
}

// Delete predicts Delete(key).
func (m *Model) Delete(key string) error {
	o := m.objs[key]
	if o == nil {
		return blob.ErrNotFound
	}
	m.retired += o.size
	delete(m.objs, key)
	return nil
}

// Stat predicts Stat(key): the size and the abstract version, which
// changes exactly when the store's Info.Version must.
func (m *Model) Stat(key string) (size int64, version int, err error) {
	o := m.objs[key]
	if o == nil {
		return 0, 0, blob.ErrNotFound
	}
	return o.size, o.version, nil
}

// Open predicts Open(key), opening reader h on success.
func (m *Model) Open(h int, key string) (int64, error) {
	o := m.objs[key]
	if o == nil {
		return 0, blob.ErrNotFound
	}
	r := *o
	m.readers[h] = &r
	return o.size, nil
}

// Read predicts reader h's ReadAll (whole) or ReadAt(off, length). The
// bounds are the pinned version's, so they are checked before whether
// it is still live. A metadata-only object reads as no bytes.
func (m *Model) Read(h int, whole bool, off, length int64) ([]byte, error) {
	r := m.readers[h]
	o := m.objs[r.key]
	switch {
	case r.closed:
		return nil, blob.ErrClosed
	case !whole && (off < 0 || length < 0 || off > r.size || length > r.size-off):
		return nil, blob.ErrOutOfRange
	case o == nil || o.version != r.version:
		return nil, blob.ErrNotFound
	case whole:
		return o.data, nil
	case o.data == nil:
		return nil, nil
	}
	return o.data[off : off+length], nil
}

// Close predicts reader h's Close.
func (m *Model) Close(h int) error {
	m.readers[h].closed = true
	return nil
}

// Compact predicts CompactObject(key) up to the bytes moved, which only
// the store knows; Relocate records a move.
func (m *Model) Compact(key string) error {
	switch {
	case m.writing(key):
		return blob.ErrBusy
	case m.objs[key] == nil:
		return blob.ErrNotFound
	}
	return nil
}

// Relocate gives key's live version a new version with the same bytes:
// a compaction moved it, and readers of the old one are stale.
func (m *Model) Relocate(key string) error {
	o := m.objs[key]
	if o == nil || m.writing(key) {
		return fmt.Errorf("relocated %q, which is absent or being written", key)
	}
	m.next++
	m.objs[key] = &object{key: key, version: m.next, size: o.size, data: o.data}
	return nil
}

// Keys and Usage predict the accounting surface; Usage has no free or
// capacity bytes, as the model has no layout. A relocation, an abort
// and a refused write retire nothing.
func (m *Model) Keys() []string { return slices.Sorted(maps.Keys(m.objs)) }

func (m *Model) Usage() blob.Usage {
	u := blob.Usage{Objects: len(m.objs), RetiredBytes: m.retired}
	for _, o := range m.objs {
		u.LiveBytes += o.size
	}
	return u
}

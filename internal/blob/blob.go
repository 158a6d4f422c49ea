// Package blob defines the v2 large-object store API: a streaming
// get/put abstraction (the paper's §4 "simple get/put storage
// primitives") with typed sentinel errors, context cancellation, and
// safe-replace semantics, implemented by two interchangeable backends —
// filesystem-backed and database-backed — in package core.
//
// Compared with the v1 whole-buffer Repository interface, objects are
// written through streaming Writers whose appends flow to the backend in
// request-sized chunks (subsuming the old WriteRequestSize plumbing) and
// read through Readers supporting whole-object and ranged reads. Every
// failure wraps one of the sentinels in errors.go, stores are safe for
// concurrent callers, and configuration uses
// functional options (options.go) instead of per-backend option structs.
package blob

import (
	"context"

	"repro/internal/extent"
	"repro/internal/vclock"
)

// Info describes one stored object.
type Info struct {
	// Key is the object's name.
	Key string
	// Size is the object's logical length in bytes.
	Size int64
	// Version identifies the live version of the object: opaque, equal
	// only for the same version, and growing with every new version of
	// the key (a replace, a delete and re-create, a relocation). A Reader
	// is pinned to the version live at Open; the network client pins its
	// readers by this value.
	Version uint64
}

// Reader is a handle to one stored object, returned by Store.Open.
// Readers of the same or different objects may be used concurrently.
// A Reader is pinned to the version that was live at Open: once the
// object is replaced or deleted, reads fail with ErrNotFound instead of
// silently serving a different version.
type Reader interface {
	// Size returns the object's logical length in bytes.
	Size() int64

	// ReadAll reads the whole object, charging the backend's full read
	// path (one disk request per physically contiguous fragment). The
	// returned payload is non-nil only when the backing drive retains
	// payload bytes (data mode); metadata-only simulation returns nil.
	//
	// The returned payload is a read-only view shared with the store and
	// other readers; it stays valid and unchanged for as long as the
	// caller holds it — across Replace, Delete, eviction, compaction and
	// Recover — and a caller that wants to modify bytes copies them. Its
	// capacity equals its length, so appending to it reallocates.
	ReadAll() ([]byte, error)

	// ReadAt reads length bytes starting at off, touching only the
	// physical runs that cover the range — an io.ReaderAt-style ranged
	// read. Payload rules match ReadAll, the view contract included.
	// Reads outside [0, Size()] fail with ErrOutOfRange, live or not.
	ReadAt(off, length int64) ([]byte, error)

	// Close releases the handle; a second Close is a no-op. Stores
	// recycle released handles, so what holds after Close is this: reads
	// fail with ErrClosed until the same store issues another handle,
	// and after that the handle may belong to another caller of that
	// store (fragvet's poollifecycle flags such a use). A store never
	// hands one of its handles to a different store's caller.
	Close() error
}

// Writer is a streaming handle for creating or safely replacing one
// object, returned by Store.Create and Store.Replace. Appended bytes
// flow to the backend in store-configured request-sized chunks; nothing
// becomes visible under the key until Commit, and a crash or Abort
// before Commit leaves any previous version intact (the paper's safe
// write, §4).
type Writer interface {
	// Append appends n logical bytes. data may be nil for metadata-only
	// simulation; when non-nil it must be exactly n bytes long. One
	// stream must be all-payload or all-metadata: mixing nil and non-nil
	// appends fails with ErrInvalidSize. The total appended before
	// Commit must equal the size declared at Create/Replace, or Commit
	// fails with ErrInvalidSize. Append copies what it keeps: data is the
	// caller's to reuse as soon as the call returns.
	Append(n int64, data []byte) error

	// Write implements io.Writer over Append.
	Write(p []byte) (int, error)

	// Commit atomically publishes the new object version and releases the
	// writer. After a failed Commit the writer stays open and Abort must
	// be called to release the key. After a successful one, as after
	// Abort, the release rules of Reader.Close hold: Append and Commit
	// fail with ErrClosed and Abort is a no-op until the same store
	// issues another handle, after which the writer may belong to
	// another caller of that store.
	Commit() error

	// Abort discards the uncommitted bytes and releases the writer,
	// leaving any previous version of the object untouched. Aborting a
	// committed or already-aborted writer is a no-op.
	Abort() error
}

// Store is the abstract large-object store both backends implement.
// Implementations are safe for concurrent use: at most one uncommitted
// Writer exists per key (a second Create/Replace fails with ErrBusy),
// and a store-level mutex serializes access to the single-threaded
// simulation engine underneath; a sharded store runs its children's
// engines in parallel.
//
// All failures wrap the sentinel errors in errors.go; test with
// errors.Is, never by matching message text.
type Store interface {
	// Name identifies the backend in reports ("filesystem" or
	// "database").
	Name() string

	// Open returns a Reader over an existing object.
	Open(ctx context.Context, key string) (Reader, error)

	// Create starts a streaming write of a new object of exactly size
	// bytes. Creating an existing key fails with ErrAlreadyExists.
	Create(ctx context.Context, key string, size int64) (Writer, error)

	// Replace starts a streaming safe replace (or create) of an object
	// with exactly size new bytes. Until the writer commits, a failure or
	// crash leaves the previous version intact.
	Replace(ctx context.Context, key string, size int64) (Writer, error)

	// Delete removes the object.
	Delete(ctx context.Context, key string) error

	// Stat returns the object's metadata.
	Stat(ctx context.Context, key string) (Info, error)

	// Keys lists live objects in unspecified order.
	Keys() []string

	// ObjectCount returns the number of live objects.
	ObjectCount() int

	// LiveBytes returns the total logical bytes of live objects.
	LiveBytes() int64

	// RetiredBytes returns the logical bytes of every version a commit
	// replaced or a delete removed since the store was built; over
	// LiveBytes, it is the paper's storage age (§4.4).
	RetiredBytes() int64

	// FreeBytes returns the immediately allocatable bytes of the backing
	// store.
	FreeBytes() int64

	// CapacityBytes returns the store's data capacity.
	CapacityBytes() int64

	// Clock returns the virtual clock charged by the backend's drives.
	Clock() *vclock.Clock

	// EachObjectRuns visits every live object's physical cluster runs
	// (frag.Source).
	EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run))

	// EachObjectTag visits every live object's disk owner tag
	// (frag.TagSource).
	EachObjectTag(fn func(key string, tag uint32))
}

type resumeKey struct{}

// Resume marks ctx as continuing a reader whose open the caller paid
// for already: a core store's Open and Stat under it charge no simulated
// cost, but lock, look up and fail as usual. The network service serves
// each read of a remote reader as an Open under Resume, so the reader
// costs what a local one does: one open, then its reads.
func Resume(ctx context.Context) context.Context { return context.WithValue(ctx, resumeKey{}, true) }

// Resumed reports whether ctx descends from Resume.
func Resumed(ctx context.Context) bool { return ctx.Value(resumeKey{}) != nil }

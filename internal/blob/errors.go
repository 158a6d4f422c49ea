package blob

import "errors"

// The store error vocabulary. Every failure a Store, Reader, or Writer
// reports wraps exactly one of these sentinels, so callers dispatch with
// errors.Is instead of string matching. Both backends — and the engine
// layers beneath them (db.Engine, fs.Volume) — map their internal
// failures onto the same set, so errors.Is holds end-to-end through
// every layer.
var (
	// ErrNotFound reports an operation on a key that does not exist.
	ErrNotFound = errors.New("blob: object not found")

	// ErrAlreadyExists reports a Create of a key that already exists.
	ErrAlreadyExists = errors.New("blob: object already exists")

	// ErrNoSpaceLeft reports an allocation failure in the backing store.
	ErrNoSpaceLeft = errors.New("blob: no space left on store")

	// ErrInvalidSize reports a zero/negative object size, a payload whose
	// length disagrees with the declared size, or a writer committed with
	// a byte count different from the size declared at Create/Replace.
	ErrInvalidSize = errors.New("blob: invalid size")

	// ErrOutOfRange reports a ranged read outside the object's bounds.
	ErrOutOfRange = errors.New("blob: read out of range")

	// ErrClosed reports use of a Reader or Writer after Close, Commit, or
	// Abort.
	ErrClosed = errors.New("blob: handle is closed")

	// ErrBusy reports a Create/Replace of a key that already has an
	// uncommitted writer in flight. Streams to one key are exclusive;
	// retry after the in-flight writer commits or aborts.
	ErrBusy = errors.New("blob: concurrent write in flight for key")

	// ErrCrashed wraps failures injected by simulated crashes.
	ErrCrashed = errors.New("blob: simulated crash")

	// ErrOverloaded reports an operation shed by admission control: the
	// store (or the service in front of it) is at its in-flight limit
	// and its wait queue is full, so the op was refused immediately
	// rather than queued without bound. Retry with backoff. Maps to
	// HTTP 429 Too Many Requests at the network boundary.
	ErrOverloaded = errors.New("blob: store overloaded, operation shed")

	// ErrUnavailable reports an operation refused because the store is
	// draining (shutting down) or an admitted op waited longer than the
	// service's queue budget. Unlike ErrOverloaded the condition is not
	// necessarily relieved by backoff alone. Maps to HTTP 503 Service
	// Unavailable at the network boundary.
	ErrUnavailable = errors.New("blob: store unavailable")

	// ErrBadOption reports an invalid or missing store option at
	// construction: a missing WithCapacity or a negative group-commit
	// batch or delay. Store constructors return it instead of
	// panicking.
	ErrBadOption = errors.New("blob: invalid store option")
)

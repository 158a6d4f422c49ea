package blob

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/units"
)

// DefaultWriteRequestSize is the append request size a zero
// Options.WriteRequestSize takes on both backends: the paper's tests
// wrote in 64 KB requests (§5.3).
const DefaultWriteRequestSize = 64 * units.KB

// Options collects the backend-independent store configuration both
// implementations consume. The zero value is usable except for Capacity,
// which every constructor requires; backends apply their own defaults to
// the remaining fields. Build an Options with the With* functional
// options rather than filling the struct directly.
type Options struct {
	// Capacity is the data drive/volume size in bytes. Required.
	Capacity int64

	// DiskMode selects payload retention on the data drive (data mode
	// for integrity tests, metadata mode for large simulations).
	DiskMode disk.Mode

	// WriteRequestSize is the append request size in bytes: a Writer's
	// appends reach the backend allocator in chunks of this size, the
	// granularity the paper's tests fixed at 64 KB (§5.3). 0 takes
	// DefaultWriteRequestSize; negative flushes each append as a single
	// request.
	WriteRequestSize int64

	// SizeHint passes the declared object size to the allocator before
	// the first append — the paper's proposed interface change (§6), off
	// by default as no such interface existed. Filesystem backend only.
	SizeHint bool

	// DelayedAllocation buffers appended bytes and allocates only at
	// commit, with the final size known (§3.4). Filesystem backend only.
	DelayedAllocation bool

	// OwnerMap keeps the per-cluster owner map on the data drive; only
	// the marker scan reads it. Set via WithOwnerMap.
	OwnerMap bool

	// GroupCommitBatch is the largest number of commits the store's
	// group-commit pipeline coalesces into one backend force. 0 or 1
	// commits synchronously (no pipeline); set via WithGroupCommit.
	GroupCommitBatch int

	// GroupCommitDelay is the longest a batch's leader holds an
	// underfull batch open, and it does so only while other writers are
	// open on the store; 0 coalesces only commits already queued. Set
	// via WithGroupCommit.
	GroupCommitDelay time.Duration

	// CommitObserver receives the group-commit pipeline's queue-wait and
	// group-force timings (virtual ns); nil records nothing. Set via
	// WithCommitObserver.
	CommitObserver CommitObserver
}

// Validate reports the backend-independent misconfigurations as
// ErrBadOption. Store constructors call it (and return the error)
// before building any simulated hardware.
func (o Options) Validate() error {
	if o.Capacity <= 0 {
		return fmt.Errorf("%w: WithCapacity is required", ErrBadOption)
	}
	if o.GroupCommitBatch < 0 {
		return fmt.Errorf("%w: group-commit batch %d is negative", ErrBadOption, o.GroupCommitBatch)
	}
	if o.GroupCommitDelay < 0 {
		return fmt.Errorf("%w: group-commit delay %v is negative", ErrBadOption, o.GroupCommitDelay)
	}
	return nil
}

// Option configures a Store at construction.
type Option func(*Options)

// NewOptions applies opts over the zero Options.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithCapacity sets the data drive/volume size in bytes.
func WithCapacity(bytes int64) Option {
	return func(o *Options) { o.Capacity = bytes }
}

// WithDiskMode selects payload retention on the data drive.
func WithDiskMode(mode disk.Mode) Option {
	return func(o *Options) { o.DiskMode = mode }
}

// WithWriteRequestSize sets the append request size in bytes; negative
// flushes each append whole.
func WithWriteRequestSize(bytes int64) Option {
	return func(o *Options) { o.WriteRequestSize = bytes }
}

// WithSizeHint passes declared object sizes to the allocator before the
// first append (filesystem backend).
func WithSizeHint() Option {
	return func(o *Options) { o.SizeHint = true }
}

// WithDelayedAllocation buffers appends and allocates at commit
// (filesystem backend).
func WithDelayedAllocation() Option {
	return func(o *Options) { o.DelayedAllocation = true }
}

// WithOwnerMap keeps the per-cluster owner map (8 bytes per cluster) on
// the data drive, and only there. Only the marker scan (frag.ScanMarkers,
// frag.CrossValidate) reads it; a store without it works the same.
func WithOwnerMap() Option {
	return func(o *Options) { o.OwnerMap = true }
}

// WithGroupCommit enables the group-commit pipeline: Writer.Commit
// queues on the store's committer, one committing writer leads the batch
// (gathering up to maxBatch pending commits on its own goroutine), and
// the backend issues one group force per batch instead of one per
// transaction — the classic amortization of the per-operation costs
// §3.1's folklore blames.
// maxDelay is a ceiling, not a wait every batch pays: an underfull
// batch is held open only while the store has other writers open that
// have not committed yet, and closes when the last of them arrives or
// maxDelay passes, whichever is first. A lone writer's commit is a
// batch of one, flushed at once. (In an otherwise idle process the Go
// netpoller rounds a sub-millisecond wait up to 1 ms, so a 200 µs
// ceiling can cost 1 ms when it is reached.) 0 coalesces only commits
// already queued. maxBatch <= 1 leaves commits synchronous.
func WithGroupCommit(maxBatch int, maxDelay time.Duration) Option {
	return func(o *Options) {
		o.GroupCommitBatch = maxBatch
		o.GroupCommitDelay = maxDelay
	}
}

// WithCommitObserver installs a group-commit pipeline latency observer
// (obs.NewCommitObserver builds one recording into a registry). Only
// meaningful together with WithGroupCommit; the synchronous commit
// path has no queue or group force to report.
func WithCommitObserver(o CommitObserver) Option {
	return func(opts *Options) { opts.CommitObserver = o }
}

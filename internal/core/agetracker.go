// Package core is the paper's primary contribution rendered as a
// library: the blob.Store get/put large-object abstraction (§4:
// "applications that make use of simple get/put storage primitives"),
// two interchangeable implementations — filesystem-backed and
// database-backed — with matched safe-replace semantics, and the
// storage-age clock (§4.4) that makes long-term fragmentation
// measurements comparable across systems, volume sizes, and hardware.
package core

import (
	"context"
	"sync/atomic"

	"repro/internal/blob"
)

// AgeTracker maintains the paper's storage-age metric for a store: "the
// ratio of bytes in objects that once existed on a volume to the number
// of bytes in use on the volume" (§4.4) — for a safe-write workload,
// replaced bytes divided by live bytes ("safe writes per object").
//
// Use it by routing all mutations through the tracker. It keeps no
// per-key state: every committed version is either still live or
// retired, so the bytes retired since the baseline are the bytes
// committed through the tracker, plus the store's live bytes at the
// baseline, minus the store's live bytes now. A write is counted only
// once it commits, so an aborted or refused stream leaves the metric
// untouched, exactly as it leaves the store untouched. The tracker is
// safe for concurrent use, like the stores it wraps; Age is exact
// whenever no write is between its commit and its count.
type AgeTracker struct {
	store     blob.Store
	committed atomic.Int64 // bytes of versions committed through the tracker since the baseline
	baseline  atomic.Int64 // the store's live bytes at the baseline
}

// NewAgeTracker wraps store. Storage age starts at zero; call
// ResetBaseline after bulk load so that age 0 corresponds to the freshly
// loaded store, as in the paper's figures.
func NewAgeTracker(store blob.Store) *AgeTracker {
	a := &AgeTracker{store: store}
	a.ResetBaseline()
	return a
}

// Store returns the wrapped store.
func (a *AgeTracker) Store() blob.Store { return a.store }

// Age returns the current storage age. It takes no lock of its own:
// the churn sources poll it before every write.
func (a *AgeTracker) Age() float64 {
	live := a.store.LiveBytes()
	if live == 0 {
		return 0
	}
	return float64(a.retired(live)) / float64(live)
}

// LiveBytes returns the store's live byte count.
func (a *AgeTracker) LiveBytes() int64 { return a.store.LiveBytes() }

// RetiredBytes returns bytes retired since the baseline.
func (a *AgeTracker) RetiredBytes() int64 { return a.retired(a.store.LiveBytes()) }

func (a *AgeTracker) retired(live int64) int64 {
	return a.committed.Load() + a.baseline.Load() - live
}

// ResetBaseline zeroes the retired-byte count (end of bulk load).
func (a *AgeTracker) ResetBaseline() {
	a.committed.Store(0)
	a.baseline.Store(a.store.LiveBytes())
}

// Put stores a new whole-buffer object, counting its bytes once it
// commits.
func (a *AgeTracker) Put(ctx context.Context, key string, size int64, data []byte) error {
	if err := blob.Put(ctx, a.store, key, size, data); err != nil {
		return err
	}
	a.committed.Add(size)
	return nil
}

// Replace performs a whole-buffer safe replace, counting the new
// version's bytes once it commits. The Stat first is the application's
// metadata lookup before a safe write, and is charged like one.
func (a *AgeTracker) Replace(ctx context.Context, key string, size int64, data []byte) error {
	a.store.Stat(ctx, key)
	if err := blob.Replace(ctx, a.store, key, size, data); err != nil {
		return err
	}
	a.committed.Add(size)
	return nil
}

// Delete removes an object after the application's metadata lookup;
// its bytes leave the store's live count and so count as retired.
func (a *AgeTracker) Delete(ctx context.Context, key string) error {
	if _, err := a.store.Stat(ctx, key); err != nil {
		return err
	}
	return a.store.Delete(ctx, key)
}

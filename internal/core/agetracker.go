// Package core is the paper's primary contribution rendered as a
// library: the blob.Store get/put large-object abstraction (§4:
// "applications that make use of simple get/put storage primitives"),
// two interchangeable implementations — filesystem-backed and
// database-backed — with matched safe-replace semantics, each counting
// the live and retired bytes whose ratio is the storage-age clock
// (§4.4) that makes long-term fragmentation measurements comparable
// across systems, volume sizes, and hardware.
package core

import "repro/internal/blob"

// AgeTracker reads the paper's storage-age metric off a store: "the
// ratio of bytes in objects that once existed on a volume to the number
// of bytes in use on the volume" (§4.4) — for a safe-write workload,
// replaced bytes divided by live bytes ("safe writes per object"). Both
// counts are the store's own, read together in one blob.Usage, so every
// write that commits is counted whichever caller made it, and an aborted
// or refused one is not.
type AgeTracker struct {
	store blob.Store
}

// NewAgeTracker reads storage age off store. A freshly loaded store is
// at age 0: a bulk load retires nothing.
func NewAgeTracker(store blob.Store) *AgeTracker { return &AgeTracker{store: store} }

// Age returns the current storage age. The churn sources poll it
// before every write.
func (a *AgeTracker) Age() float64 {
	u := a.store.Usage()
	if u.LiveBytes == 0 {
		return 0
	}
	return float64(u.RetiredBytes) / float64(u.LiveBytes)
}

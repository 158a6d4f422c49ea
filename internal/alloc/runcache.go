package alloc

import (
	"fmt"

	"repro/internal/extent"
)

// RunCache models NTFS's free-space allocator as the paper describes it
// (§2): runs of contiguous free clusters are cached in decreasing size and
// volume-offset order; a new allocation is first attempted from the outer
// band, then from large cached extents, and only then is the file
// fragmented. On sequential appends NTFS "aggressively attempt[s] to
// allocate contiguous space" (§5.4), which the cache models by extending
// at the file's tail before consulting the cache.
//
// Freed space is not immediately reusable: NTFS commits the transactional
// log entry before freed clusters can be reallocated (§2). Freed runs are
// therefore quarantined in a pending list until CommitLog is called; the
// filesystem layer flushes the log periodically, which is what lets a
// deleted neighbourhood coalesce into large runs before reuse.
type RunCache struct {
	idx      *extent.FreeIndex
	clusters int64
	// outerBand is the cluster boundary of the preferred fast band.
	outerBand int64
	// pending holds freed runs awaiting log commit.
	pending []extent.Run
	// pendingClusters tracks their total so FreeClusters stays truthful.
	pendingClusters int64
	// scratch backs AllocAppendScratch results between calls.
	scratch []extent.Run
}

// NewRunCache creates a run-cache allocator over a volume of the given
// size in clusters. bandFrac is the fraction of the volume treated as the
// preferred outer band (NTFS targets fast outer zones); 0 disables banding.
func NewRunCache(clusters int64, bandFrac float64) *RunCache {
	if clusters <= 0 {
		panic(fmt.Sprintf("alloc: bad volume size %d", clusters))
	}
	if bandFrac < 0 || bandFrac > 1 {
		panic(fmt.Sprintf("alloc: bad band fraction %g", bandFrac))
	}
	idx := extent.NewFreeIndex()
	idx.Free(extent.Run{Start: 0, Len: clusters})
	return &RunCache{idx: idx, clusters: clusters, outerBand: int64(float64(clusters) * bandFrac)}
}

// FreeClusters reports immediately allocatable clusters. Pending
// (quarantined) clusters are excluded until CommitLog.
func (rc *RunCache) FreeClusters() int64 { return rc.idx.FreeClusters() }

// PendingClusters reports clusters freed but awaiting log commit.
func (rc *RunCache) PendingClusters() int64 { return rc.pendingClusters }

// Free quarantines r until the next CommitLog.
func (rc *RunCache) Free(r extent.Run) {
	rc.pending = append(rc.pending, r)
	rc.pendingClusters += r.Len
}

// CommitLog makes all quarantined runs reusable, coalescing them into the
// free index. The filesystem calls this on its periodic log flush.
func (rc *RunCache) CommitLog() {
	for _, r := range rc.pending {
		rc.idx.Free(r)
	}
	rc.pending = rc.pending[:0]
	rc.pendingClusters = 0
}

// Alloc implements Policy: it allocates without append context.
func (rc *RunCache) Alloc(n int64) ([]extent.Run, error) {
	return rc.AllocAppend(n, -1)
}

// AllocAppendScratch is AllocAppend without the per-request slice
// allocation: the returned runs are backed by the cache's internal
// scratch buffer and stay valid only until the next allocation call.
// The hot append path (one allocator request per write request) uses
// it; callers must copy anything they keep.
func (rc *RunCache) AllocAppendScratch(n, tail int64) ([]extent.Run, error) {
	out, err := rc.allocAppend(rc.scratch[:0], n, tail)
	if out != nil {
		rc.scratch = out
	}
	return out, err
}

// AllocAppend allocates n clusters the way the paper describes NTFS
// stream allocation (§2): (1) contiguous extension at tail+1 when a
// sequential append is detected; (2) when banding is configured, the
// lowest-offset outer-band run that holds the whole request; (3) the
// large extents at the front of the size-ordered cache — note NTFS bands
// metadata but "not file contents", so fs volumes run with banding off
// and data comes straight from the largest cached runs; (4) when even
// the largest run cannot hold the remainder, the file is fragmented
// across successively smaller runs.
//
// Largest-extent allocation is what makes the object-size distribution
// irrelevant (Figure 5): requests never search for a hole that matches
// the object, so constant-size objects enjoy no special-case reuse.
func (rc *RunCache) AllocAppend(n, tail int64) ([]extent.Run, error) {
	return rc.allocAppend(nil, n, tail)
}

// allocAppend implements both AllocAppend variants, appending the
// allocated runs to out.
func (rc *RunCache) allocAppend(out []extent.Run, n, tail int64) ([]extent.Run, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: invalid request %d", n)
	}
	if !rc.room(n) {
		return nil, ErrNoSpace
	}
	remaining := n

	// (1) Sequential-append tail extension, possibly partial.
	if tail >= 0 {
		if r, ok := rc.idx.ExtendAt(tail+1, remaining); ok {
			out = append(out, r)
			remaining -= r.Len
			if remaining == 0 {
				return out, nil
			}
			tail = r.End() - 1
		}
	}

	// (2) Outer band: lowest-offset run inside the band that fits.
	if rc.outerBand > 0 {
		if r, ok := rc.takeOuterBand(remaining); ok {
			out = append(out, r)
			return out, nil
		}
	}

	// (3) Whole-request contiguous anywhere: the lowest-offset cached run
	// that holds the remainder.
	if r, ok := rc.idx.TakeFirstFit(remaining); ok {
		out = append(out, r)
		return out, nil
	}

	// (4) Fragment: fill from the largest cached extents.
	for remaining > 0 {
		r, ok := rc.idx.TakeUpTo(remaining)
		if !ok {
			for _, u := range out {
				rc.idx.Free(u)
			}
			return nil, ErrNoSpace
		}
		out = append(out, r)
		remaining -= r.Len
	}
	return out, nil
}

// TakeContiguous takes n clusters as one run, the lowest-offset free
// run that holds them, or takes nothing (the log is committed first
// when only quarantined space could make room, as in Alloc).
func (rc *RunCache) TakeContiguous(n int64) (extent.Run, bool) {
	if n <= 0 || !rc.room(n) {
		return extent.Run{}, false
	}
	return rc.idx.TakeFirstFit(n)
}

// room reports whether n clusters can be allocated. NTFS forces a log
// commit under pressure rather than fail while quarantined space exists.
func (rc *RunCache) room(n int64) bool {
	if free := rc.idx.FreeClusters(); free < n && free+rc.pendingClusters >= n {
		rc.CommitLog()
	}
	return rc.idx.FreeClusters() >= n
}

// takeOuterBand finds the lowest-offset free run that both fits n and
// starts inside the outer band.
func (rc *RunCache) takeOuterBand(n int64) (extent.Run, bool) {
	return rc.idx.TakeFirstFitBelow(n, rc.outerBand)
}

// RunCount reports the number of cached free runs.
func (rc *RunCache) RunCount() int { return rc.idx.RunCount() }

// Runs returns copies of the free runs, in offset order, and of the
// runs awaiting log commit. Intended for tests.
func (rc *RunCache) Runs() (free, pending []extent.Run) {
	return rc.idx.Runs(), append([]extent.Run(nil), rc.pending...)
}

// CheckInvariants panics unless the free index passes its own check and
// the pending count matches the runs awaiting log commit. Intended for
// tests.
func (rc *RunCache) CheckInvariants() {
	rc.idx.CheckInvariants()
	var n int64
	for _, r := range rc.pending {
		n += r.Len
	}
	if n != rc.pendingClusters {
		panic(fmt.Sprintf("alloc: pending count %d != sum %d", rc.pendingClusters, n))
	}
}

var _ Policy = (*RunCache)(nil)

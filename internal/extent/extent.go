// Package extent defines the contiguous-run abstraction used throughout the
// storage stack and the free-space index every allocation policy in the
// paper's discussion runs on.
//
// FreeIndex keeps a volume's free runs in offset order and coalesces
// neighbours on free — the structure a filesystem bitmap or run list
// provides. The runs sit in buckets of consecutive runs, and each bucket
// bounds its longest run, so the questions the policies ask are answered
// from that summary rather than by a walk over every run: the lowest-offset
// run that holds n clusters (first fit, and the NTFS run cache's
// whole-request lookup), the largest run (worst fit, and the run cache's
// fragmenting path over "runs of contiguous free clusters ordered in
// decreasing size", paper §2), and the smallest sufficient run (best fit).
// The bound is made exact only when a query needs it, and the index
// remembers the run it last found or cut, so an append whose next request
// starts where the last one ended finds its run without a search.
//
// All quantities are in clusters; the disk layer converts bytes to clusters.
package extent

import (
	"fmt"
	"math"
	"slices"
)

// Run is a contiguous range of clusters [Start, Start+Len).
type Run struct {
	Start int64 // first cluster
	Len   int64 // number of clusters, > 0 for valid runs
}

// End returns the first cluster after the run.
func (r Run) End() int64 { return r.Start + r.Len }

// Contains reports whether cluster c lies inside the run.
func (r Run) Contains(c int64) bool { return c >= r.Start && c < r.End() }

// Overlaps reports whether two runs share any cluster.
func (r Run) Overlaps(o Run) bool { return r.Start < o.End() && o.Start < r.End() }

func (r Run) String() string { return fmt.Sprintf("[%d,+%d)", r.Start, r.Len) }

// SumLen returns the total cluster count of runs.
func SumLen(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// bucketSize is half a bucket's capacity: a bucket that grows past
// 2*bucketSize runs splits into two, and a bucket that empties is dropped.
const bucketSize = 64

// hintSteps is how many runs floor steps forward from its hint before it
// falls back to a search.
const hintSteps = 4

// bucket holds consecutive free runs in offset order and a bound on the
// length of the longest of them. The bound is never below the longest run,
// and it is exact unless stale: shrinking or removing the longest run only
// marks it stale, and the queries that must know tighten it.
type bucket struct {
	runs  []Run
	max   int64
	stale bool
}

// tighten makes the bucket's bound exact.
func (b *bucket) tighten() { b.max, b.stale = maxLen(b.runs), false }

// FreeIndex tracks the free runs of a volume in offset order and coalesces
// adjacent runs on Free. Taking part of a run, extending at a tail and
// coalescing all shrink or grow a run in place. Create one with
// NewFreeIndex.
type FreeIndex struct {
	buckets []bucket // in offset order, each holding 1..2*bucketSize runs
	free    int64    // total free clusters
	// hintB, hintR is the position floor last returned or carve last cut.
	// Any change may move the runs under it, so floor checks it before use.
	hintB, hintR int
}

// NewFreeIndex returns an empty index.
func NewFreeIndex() *FreeIndex { return &FreeIndex{} }

// FreeClusters returns the total number of free clusters tracked.
func (f *FreeIndex) FreeClusters() int64 { return f.free }

// RunCount returns the number of distinct free runs.
func (f *FreeIndex) RunCount() int {
	n := 0
	for _, b := range f.buckets {
		n += len(b.runs)
	}
	return n
}

// Free returns run r to the index, coalescing with adjacent free runs.
// It panics if r overlaps space that is already free (a double free).
func (f *FreeIndex) Free(r Run) {
	if r.Len <= 0 {
		panic(fmt.Sprintf("extent: Free of empty run %v", r))
	}
	bi, ri, hasPrev := f.floor(r.Start)
	var prev, next Run
	nbi, nri := 0, 0
	if hasPrev {
		if prev = f.at(bi, ri); prev.Overlaps(r) {
			panic(fmt.Sprintf("extent: double free: %v overlaps free %v", r, prev))
		}
		nbi, nri = f.next(bi, ri)
	}
	hasNext := nbi < len(f.buckets)
	if hasNext {
		if next = f.at(nbi, nri); next.Overlaps(r) {
			panic(fmt.Sprintf("extent: double free: %v overlaps free %v", r, next))
		}
	}
	joinPrev := hasPrev && prev.End() == r.Start
	joinNext := hasNext && r.End() == next.Start
	switch {
	case joinPrev && joinNext:
		f.remove(nbi, nri)
		f.set(bi, ri, Run{Start: prev.Start, Len: prev.Len + r.Len + next.Len})
	case joinPrev:
		f.set(bi, ri, Run{Start: prev.Start, Len: prev.Len + r.Len})
	case joinNext:
		f.set(nbi, nri, Run{Start: r.Start, Len: r.Len + next.Len})
	case hasPrev:
		f.insert(bi, ri+1, r)
	default:
		f.insert(0, 0, r)
	}
}

// Reserve removes the specific run r from the free index, splitting a
// containing run as needed. It reports whether r was entirely free.
func (f *FreeIndex) Reserve(r Run) bool {
	if r.Len <= 0 {
		return false
	}
	bi, ri, ok := f.floor(r.Start)
	if !ok || r.End() > f.at(bi, ri).End() {
		return false
	}
	f.carve(bi, ri, r)
	return true
}

// TakeFirstFit removes and returns the lowest-offset free run of at least n
// clusters, trimmed to exactly n. ok=false if no run is large enough.
func (f *FreeIndex) TakeFirstFit(n int64) (Run, bool) {
	return f.TakeFirstFitBelow(n, math.MaxInt64)
}

// TakeFirstFitBelow removes and returns the lowest-offset free run of at
// least n clusters that starts below limit, trimmed to exactly n.
func (f *FreeIndex) TakeFirstFitBelow(n, limit int64) (Run, bool) {
	bi, ri, ok := f.firstFit(n, limit, 0, 0)
	if !ok {
		return Run{}, false
	}
	return f.take(bi, ri, n), true
}

// TakeBestFit removes and returns the smallest free run of at least n
// clusters (ties to lowest offset), trimmed to exactly n.
func (f *FreeIndex) TakeBestFit(n int64) (Run, bool) {
	bi, ri := -1, -1
	best := int64(math.MaxInt64)
scan:
	for i := range f.buckets {
		b := &f.buckets[i]
		if b.max < n {
			continue
		}
		var longest int64
		for j, r := range b.runs {
			longest = max(longest, r.Len)
			if r.Len >= n && r.Len < best {
				bi, ri, best = i, j, r.Len
				if best == n {
					break scan
				}
			}
		}
		b.max, b.stale = longest, false
	}
	if bi < 0 {
		return Run{}, false
	}
	return f.take(bi, ri, n), true
}

// TakeWorstFit removes and returns the prefix of the largest free run,
// trimmed to exactly n clusters.
func (f *FreeIndex) TakeWorstFit(n int64) (Run, bool) {
	bi, ri, ok := f.largest()
	if !ok || f.at(bi, ri).Len < n {
		return Run{}, false
	}
	return f.take(bi, ri, n), true
}

// TakeNextFit behaves like first fit but starts scanning at cursor,
// wrapping around. It returns the new cursor (end of the allocation).
func (f *FreeIndex) TakeNextFit(n, cursor int64) (Run, int64, bool) {
	bi, ri := 0, 0
	if pb, pr, ok := f.floor(cursor - 1); ok {
		bi, ri = f.next(pb, pr)
	}
	bi, ri, ok := f.firstFit(n, math.MaxInt64, bi, ri)
	if !ok {
		// Wrap: the runs from the cursor on have already failed.
		if bi, ri, ok = f.firstFit(n, cursor, 0, 0); !ok {
			return Run{}, cursor, false
		}
	}
	r := f.take(bi, ri, n)
	return r, r.End(), true
}

// TakeUpTo removes and returns the prefix of the largest free run, with
// length min(n, run length). Used by allocators that accept fragmentation:
// callers loop until they have n clusters total.
func (f *FreeIndex) TakeUpTo(n int64) (Run, bool) {
	bi, ri, ok := f.largest()
	if !ok {
		return Run{}, false
	}
	return f.take(bi, ri, min(n, f.at(bi, ri).Len)), true
}

// ExtendAt reserves as many clusters as are free at start, up to n.
// Returns ok=false if even one cluster at start is unavailable.
func (f *FreeIndex) ExtendAt(start, n int64) (Run, bool) {
	bi, ri, ok := f.floor(start)
	if !ok || !f.at(bi, ri).Contains(start) {
		return Run{}, false
	}
	r := Run{Start: start, Len: min(n, f.at(bi, ri).End()-start)}
	if r.Len <= 0 {
		panic(fmt.Sprintf("extent: ExtendAt(%d, %d)", start, n))
	}
	f.carve(bi, ri, r)
	return r, true
}

// Runs returns all free runs in offset order. Intended for tools and tests.
func (f *FreeIndex) Runs() []Run {
	out := make([]Run, 0, f.RunCount())
	for _, b := range f.buckets {
		out = append(out, b.runs...)
	}
	return out
}

// CheckInvariants panics if runs are out of order, overlap or were left
// uncoalesced, if a bucket's size is wrong or its bound is below its
// longest run or, unless stale, above it, or if the free count disagrees
// with the runs. Intended for tests.
func (f *FreeIndex) CheckInvariants() {
	var prev Run
	count, total := 0, int64(0)
	for i, b := range f.buckets {
		if len(b.runs) == 0 || len(b.runs) > 2*bucketSize {
			panic(fmt.Sprintf("extent: bucket %d holds %d runs, want 1..%d", i, len(b.runs), 2*bucketSize))
		}
		if m := maxLen(b.runs); b.max < m || b.max > m && !b.stale {
			panic(fmt.Sprintf("extent: bucket %d records max %d (stale %t), its longest run is %d", i, b.max, b.stale, m))
		}
		for _, r := range b.runs {
			if r.Len <= 0 {
				panic(fmt.Sprintf("extent: empty run %v in index", r))
			}
			if count > 0 && r.Start < prev.End() {
				panic(fmt.Sprintf("extent: overlapping or unordered free runs %v %v", prev, r))
			}
			if count > 0 && r.Start == prev.End() {
				panic(fmt.Sprintf("extent: uncoalesced free runs %v %v", prev, r))
			}
			prev = r
			count++
			total += r.Len
		}
	}
	if total != f.free {
		panic(fmt.Sprintf("extent: free count %d != sum %d", f.free, total))
	}
}

// A position (bi, ri) names run ri of bucket bi; bi == len(f.buckets) is
// past the last run.

func (f *FreeIndex) at(bi, ri int) Run { return f.buckets[bi].runs[ri] }

// floor returns the position of the last run starting at or before c;
// ok=false when every run starts after c. It tries the hint and the few
// runs after it first, and searches only when none of them is the one.
func (f *FreeIndex) floor(c int64) (bi, ri int, ok bool) {
	bi, ri = f.hintB, f.hintR
	if bi < len(f.buckets) && ri < len(f.buckets[bi].runs) && f.at(bi, ri).Start <= c {
		for range hintSteps {
			nbi, nri := f.next(bi, ri)
			if nbi == len(f.buckets) || f.at(nbi, nri).Start > c {
				f.hintB, f.hintR = bi, ri
				return bi, ri, true
			}
			bi, ri = nbi, nri
		}
	}
	// Binary search for the last bucket, then the last run in it, that
	// starts at or before c.
	lo, hi := 0, len(f.buckets)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); f.buckets[m].runs[0].Start <= c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return 0, 0, false
	}
	bi = lo - 1
	runs := f.buckets[bi].runs
	lo, hi = 1, len(runs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); runs[m].Start <= c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	f.hintB, f.hintR = bi, lo-1
	return bi, lo - 1, true
}

// next returns the position after (bi, ri).
func (f *FreeIndex) next(bi, ri int) (int, int) {
	if ri+1 < len(f.buckets[bi].runs) {
		return bi, ri + 1
	}
	return bi + 1, 0
}

// firstFit returns the position of the first run at or after (bi, ri) that
// holds n clusters and starts below limit. It skips every bucket whose
// bound is below n and scans only the buckets it admits. A bucket scanned
// whole without a fit had a stale bound, which the scan makes exact.
func (f *FreeIndex) firstFit(n, limit int64, bi, ri int) (int, int, bool) {
	for ; bi < len(f.buckets) && f.buckets[bi].runs[0].Start < limit; bi, ri = bi+1, 0 {
		b := &f.buckets[bi]
		if b.max < n {
			continue
		}
		var longest int64
		j := ri
		for ; j < len(b.runs) && b.runs[j].Start < limit; j++ {
			if b.runs[j].Len >= n {
				return bi, j, true
			}
			longest = max(longest, b.runs[j].Len)
		}
		if ri == 0 && j == len(b.runs) {
			b.max, b.stale = longest, false
		}
	}
	return 0, 0, false
}

// largest returns the position of the largest run, ties to the highest
// offset; ok=false when the index is empty. Walking from the highest
// offset down, it tightens only the stale buckets whose bound beats the
// longest run seen so far.
func (f *FreeIndex) largest() (bi, ri int, ok bool) {
	bi = -1
	var longest int64
	for i := len(f.buckets) - 1; i >= 0; i-- {
		b := &f.buckets[i]
		if b.max > longest && b.stale {
			b.tighten()
		}
		if b.max > longest {
			bi, longest = i, b.max
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	b := &f.buckets[bi]
	ri = len(b.runs) - 1
	for b.runs[ri].Len != b.max {
		ri--
	}
	return bi, ri, true
}

// take removes the first n clusters of the run at (bi, ri) and returns
// them.
func (f *FreeIndex) take(bi, ri int, n int64) Run {
	r := Run{Start: f.at(bi, ri).Start, Len: n}
	f.carve(bi, ri, r)
	return r
}

// carve removes r from the run at (bi, ri), which contains it. The run
// shrinks in place; only a cut from its middle inserts a second run.
func (f *FreeIndex) carve(bi, ri int, r Run) {
	host := f.at(bi, ri)
	f.hintB, f.hintR = bi, ri
	switch {
	case r == host:
		f.remove(bi, ri)
	case r.Start == host.Start:
		f.set(bi, ri, Run{Start: r.End(), Len: host.End() - r.End()})
	default:
		f.set(bi, ri, Run{Start: host.Start, Len: r.Start - host.Start})
		if r.End() < host.End() {
			f.insert(bi, ri+1, Run{Start: r.End(), Len: host.End() - r.End()})
		}
	}
}

// set replaces the run at (bi, ri) with r, which keeps the offset order.
func (f *FreeIndex) set(bi, ri int, r Run) {
	b := &f.buckets[bi]
	old := b.runs[ri]
	b.runs[ri] = r
	f.free += r.Len - old.Len
	if r.Len >= b.max {
		b.max, b.stale = r.Len, false
	} else if old.Len == b.max {
		b.stale = true
	}
}

// insert places r before position ri of bucket bi, splitting the bucket
// when it outgrows 2*bucketSize runs.
func (f *FreeIndex) insert(bi, ri int, r Run) {
	f.free += r.Len
	if len(f.buckets) == 0 {
		f.buckets = append(f.buckets, bucket{runs: newRuns(r), max: r.Len})
		return
	}
	b := &f.buckets[bi]
	b.runs = slices.Insert(b.runs, ri, r)
	if r.Len >= b.max {
		b.max, b.stale = r.Len, false
	}
	if len(b.runs) > 2*bucketSize {
		hi := bucket{runs: newRuns(b.runs[bucketSize:]...)}
		hi.tighten()
		b.runs = b.runs[:bucketSize]
		b.tighten()
		f.buckets = slices.Insert(f.buckets, bi+1, hi)
	}
}

// remove deletes the run at (bi, ri), dropping its bucket if it empties.
func (f *FreeIndex) remove(bi, ri int) {
	b := &f.buckets[bi]
	old := b.runs[ri]
	b.runs = slices.Delete(b.runs, ri, ri+1)
	f.free -= old.Len
	switch {
	case len(b.runs) == 0:
		f.buckets = slices.Delete(f.buckets, bi, bi+1)
	case old.Len == b.max:
		b.stale = true
	}
}

// newRuns returns a bucket's run slice holding runs, with room to grow to
// the size at which it splits.
func newRuns(runs ...Run) []Run {
	return append(make([]Run, 0, 2*bucketSize+1), runs...)
}

func maxLen(runs []Run) int64 {
	var m int64
	for _, r := range runs {
		m = max(m, r.Len)
	}
	return m
}

package db

import (
	"fmt"
	"math/bits"
)

// Allocator is the GAM/PFS analog: a free-page mask per extent, the
// first never-used extent, and a deallocation cache. Fresh extents go out
// in address order. Nothing returns an extent to the GAM: an extent whose
// last page is freed joins the deallocation cache, and wholly-free
// extents are handed out from that cache, FIFO, before any fresh one.
// Partly used extents feed page-granular allocations, and are raided
// lowest first only under space pressure, once no wholly-free extent is
// left.
//
// FIFO reuse is the behaviour the paper's SQL Server curves imply: freed
// space is reused in deallocation order, not address order, so it never
// re-coalesces, and fragments/object climbs without an asymptote
// (Figures 2 and 5), in contrast to NTFS's coalescing largest-run-first
// cache. The classic malloc literature the paper cites (§3.2) documents
// the same policy/fragmentation relationship.
//
// The policy is extent- and page-granular; the bookkeeping is not. As in
// the engine modelled, the PFS is a flat byte per extent, allocations
// come back as page runs and a free applies one mask per extent a run
// touches.
type Allocator struct {
	extents int64

	// pfs[e] is extent e's free-page mask: 0xFF while the extent is
	// wholly free — never used, or queued in the deallocation cache —
	// and 0 when every page is in use. A free of a page whose bit is
	// already set is a double free, whichever of the three states the
	// extent is in.
	pfs []uint8
	// fresh is the first never-used extent: every extent at or above it
	// is GAM-free, every one below it has been handed out.
	fresh int64
	// partial has bit e set when extent e is partly used (0 < pfs[e] <
	// 0xFF), so the space-pressure scan is a word scan; partials counts
	// the set bits.
	partial  bitmap
	partials int
	// mixed is the extent currently feeding page-granular allocations
	// (the mixed-extent pool); -1 when none.
	mixed int64

	// scratch backs the runs AllocRequest and AllocPages return: the
	// allocator is called a few times per operation on a single-threaded
	// engine, so one reused buffer removes an alloc per call. A returned
	// slice is valid only until the next allocating call.
	scratch []PageRun

	// reuse is the deallocation cache: extents whose last page was freed,
	// in completion order. New allocations consume it FIFO before taking
	// a fresh extent. Real engines keep such caches so fresh
	// allocations do not pay a bitmap scan; the consequence — freed space
	// is reused in deallocation order, not address order, so it never
	// re-coalesces — is the compounding scatter behind the paper's
	// observation that SQL Server's fragmentation "increases almost
	// linearly over time and does not seem to be approaching any
	// asymptote" (§5.3).
	reuse     []int64
	reuseHead int

	freePages int64
}

// bitmap is one bit per extent.
type bitmap []uint64

func (b bitmap) get(i int64) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitmap) set(i int64)      { b[i/64] |= 1 << uint(i%64) }
func (b bitmap) clear(i int64)    { b[i/64] &^= 1 << uint(i%64) }

// next returns the first set bit at or after from, or -1. from must lie
// inside the bitmap.
func (b bitmap) next(from int64) int64 {
	w := from / 64
	// Mask off bits below `from` in the first word.
	word := b[w] &^ ((1 << uint(from%64)) - 1)
	for word == 0 {
		if w++; w >= int64(len(b)) {
			return -1
		}
		word = b[w]
	}
	return w*64 + int64(bits.TrailingZeros64(word))
}

// NewAllocator creates an allocator over the given number of extents,
// all initially free.
func NewAllocator(extents int64) *Allocator {
	if extents <= 0 {
		panic(fmt.Sprintf("db: bad extent count %d", extents))
	}
	a := &Allocator{
		extents:   extents,
		pfs:       make([]uint8, extents),
		partial:   make(bitmap, (extents+63)/64),
		mixed:     -1,
		freePages: extents * PagesPerExtent,
	}
	for i := range a.pfs {
		a.pfs[i] = 0xFF
	}
	return a
}

// FreePages returns the total number of free pages.
func (a *Allocator) FreePages() int64 { return a.freePages }

// Extents returns the total extent count.
func (a *Allocator) Extents() int64 { return a.extents }

// takeFreeExtent claims the next wholly-free extent: the head of the
// deallocation cache when one exists, otherwise the first never-used
// extent; -1 when none exists. The claimed extent's mask still reads
// 0xFF; the caller records what it takes.
func (a *Allocator) takeFreeExtent() int64 {
	if a.reuseHead < len(a.reuse) {
		e := a.reuse[a.reuseHead]
		a.reuseHead++
		if a.reuseHead == len(a.reuse) {
			a.reuse = a.reuse[:0]
			a.reuseHead = 0
		}
		return e
	}
	if a.fresh == a.extents {
		return -1
	}
	a.fresh++
	return a.fresh - 1
}

// setMask records extent e's free-page mask, keeping the partial bitmap
// and its count in step.
func (a *Allocator) setMask(e int64, mask uint8) {
	a.pfs[e] = mask
	if is := mask != 0 && mask != 0xFF; is != a.partial.get(e) {
		if is {
			a.partial.set(e)
			a.partials++
		} else {
			a.partial.clear(e)
			a.partials--
		}
	}
}

// AllocPages allocates n pages page-granularly, from the mixed-extent
// pool: pages come from the current mixed extent until it is exhausted,
// then the next wholly-free extent (deallocation cache first) is broken
// to refill the pool. Only under space pressure — no wholly-free extent
// anywhere — are other partial extents raided.
//
// Because the refill consumes whole extents from the same deallocation
// cache that feeds bulk allocations, the steady trickle of tree-node and
// row-page allocations shifts the cache's alignment relative to object
// boundaries — the drift that makes even constant-size objects fragment
// (§5.4) and keeps the database's curve climbing (§5.3).
func (a *Allocator) AllocPages(n int64) ([]PageRun, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("db: AllocPages(%d)", n))
	}
	if a.freePages < n {
		return nil, false
	}
	a.scratch = a.allocPages(a.scratch[:0], n)
	return a.scratch, true
}

// allocPages appends n pages from the mixed-extent pool to out. The
// caller has checked that n pages are free.
func (a *Allocator) allocPages(out []PageRun, n int64) []PageRun {
	a.freePages -= n
	for n > 0 {
		e := a.mixed
		if e < 0 || !a.partial.get(e) {
			// Refill the pool from the deallocation cache or a fresh
			// extent; under space pressure raid the lowest partial one.
			if e = a.takeFreeExtent(); e == -1 {
				if e = a.partial.next(0); e == -1 {
					panic("db: free-page accounting out of sync")
				}
			}
			a.mixed = e
		}
		mask := a.pfs[e]
		for ; mask != 0 && n > 0; n-- {
			p := bits.TrailingZeros8(mask)
			mask &^= 1 << uint(p)
			out = appendRun(out, PageRun{Start: PageID(e*PagesPerExtent + int64(p)), Len: 1})
		}
		a.setMask(e, mask)
	}
	return out
}

// AllocRequest allocates n pages as one client write request, with SQL
// Server's granularity split: the extent-aligned bulk of the request
// takes whole uniform extents (deallocation cache first) while the tail —
// and any shortfall when no whole extents remain — is filled page-
// granular from partial extents. This is why the size of client write
// requests shapes long-term fragmentation (§5.3: the systems converge to
// one fragment per 64 KB write request; §5.4: "modifying the size of the
// write requests ... changes long-term fragmentation behavior").
func (a *Allocator) AllocRequest(n int64) ([]PageRun, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("db: AllocRequest(%d)", n))
	}
	if a.freePages < n {
		return nil, false
	}
	out := a.scratch[:0]
	for ; n >= PagesPerExtent; n -= PagesPerExtent {
		e := a.takeFreeExtent()
		if e == -1 {
			break
		}
		a.pfs[e] = 0
		a.freePages -= PagesPerExtent
		out = appendRun(out, PageRun{Start: PageID(e * PagesPerExtent), Len: PagesPerExtent})
	}
	if n > 0 {
		out = a.allocPages(out, n)
	}
	a.scratch = out
	return out, true
}

// FreeRuns returns the runs' pages to the pool, one mask per extent a
// run touches, queueing an extent in the deallocation cache when its
// last page comes back. Extents complete in the order a page-at-a-time
// free of the same runs would complete them.
func (a *Allocator) FreeRuns(runs []PageRun) {
	for _, r := range runs {
		a.freeRun(r)
	}
}

// FreePage returns one page to the pool.
func (a *Allocator) FreePage(p PageID) { a.freeRun(PageRun{Start: p, Len: 1}) }

// freeRun frees r extent by extent: the pages of r inside one extent are
// one mask.
func (a *Allocator) freeRun(r PageRun) {
	for p, end := int64(r.Start), int64(r.End()); p < end; {
		e, first := p/PagesPerExtent, p%PagesPerExtent
		n := min(PagesPerExtent-first, end-p)
		mask, old := uint8((uint(1)<<uint(n)-1)<<uint(first)), a.pfs[e]
		if dup := old & mask; dup != 0 {
			panic(fmt.Sprintf("db: double free of page %d (extent free-page mask %08b)",
				e*PagesPerExtent+int64(bits.TrailingZeros8(dup)), old))
		}
		a.setMask(e, old|mask)
		if old|mask == 0xFF {
			a.reuse = append(a.reuse, e)
		}
		a.freePages += n
		p += n
	}
}

// PartialExtents reports how many extents are partially used — a measure
// of page-level free-space scatter for the layout tool.
func (a *Allocator) PartialExtents() int { return a.partials }

// ReuseQueueLen reports the number of extents waiting in the
// deallocation cache.
func (a *Allocator) ReuseQueueLen() int { return len(a.reuse) - a.reuseHead }

// CheckInvariants panics when the masks disagree with the GAM, the
// partial bitmap, the deallocation cache or the free-page count.
// Intended for tests.
func (a *Allocator) CheckInvariants() {
	queued := make(map[int64]bool)
	for _, e := range a.reuse[a.reuseHead:] {
		if queued[e] {
			panic(fmt.Sprintf("db: extent %d queued twice", e))
		}
		queued[e] = true
		if e >= a.fresh {
			panic(fmt.Sprintf("db: extent %d both queued and GAM-free", e))
		}
	}
	var count int64
	partials := 0
	for e := int64(0); e < a.extents; e++ {
		mask := a.pfs[e]
		if wholly := e >= a.fresh || queued[e]; wholly != (mask == 0xFF) {
			panic(fmt.Sprintf("db: extent %d has mask %08b, GAM-free %v, queued %v", e, mask, e >= a.fresh, queued[e]))
		}
		if is := mask != 0 && mask != 0xFF; is != a.partial.get(e) {
			panic(fmt.Sprintf("db: extent %d has mask %08b, partial bit %v", e, mask, a.partial.get(e)))
		} else if is {
			partials++
		}
		count += int64(bits.OnesCount8(mask))
	}
	if partials != a.partials {
		panic(fmt.Sprintf("db: partial count %d != bitmap sum %d", a.partials, partials))
	}
	if count != a.freePages {
		panic(fmt.Sprintf("db: freePages %d != mask sum %d", a.freePages, count))
	}
}

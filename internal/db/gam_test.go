package db

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestDoubleFreePanics: a page can be free in an extent the GAM holds, in
// an extent queued in the deallocation cache, or in a partly used extent;
// freeing it again panics in all three. The queued case went unnoticed
// when the PFS only had entries for partial extents: the page was booked
// as freshly partial and FreePages read 129 on a 128-page volume.
func TestDoubleFreePanics(t *testing.T) {
	t.Run("extent in the GAM", func(t *testing.T) {
		a := NewAllocator(16)
		mustPanic(t, "FreePage of a never-allocated page", func() { a.FreePage(9) })
	})
	t.Run("extent queued in the deallocation cache", func(t *testing.T) {
		a := NewAllocator(16)
		runs, _ := a.AllocRequest(PagesPerExtent)
		held := slices.Clone(runs)
		a.FreeRuns(held)
		if a.ReuseQueueLen() != 1 {
			t.Fatalf("queue length %d after freeing a whole extent", a.ReuseQueueLen())
		}
		mustPanic(t, "FreePage into a queued extent", func() { a.FreePage(held[0].Start + 3) })
		if a.FreePages() != 16*PagesPerExtent {
			t.Fatalf("FreePages = %d on a %d-page volume", a.FreePages(), 16*PagesPerExtent)
		}
		a.CheckInvariants()
	})
	t.Run("partial extent", func(t *testing.T) {
		a := NewAllocator(16)
		runs, _ := a.AllocPages(5)
		p := runs[0].Start
		a.FreePage(p + 1)
		mustPanic(t, "second FreePage of one page", func() { a.FreePage(p + 1) })
		mustPanic(t, "FreePage of a page the mixed extent never handed out", func() { a.FreePage(p + 6) })
		a.CheckInvariants()
	})
	t.Run("run straddling an allocated and a free extent", func(t *testing.T) {
		a := NewAllocator(16)
		runs, _ := a.AllocRequest(2 * PagesPerExtent) // extents 0 and 1
		first := runs[0].Start
		a.FreeRuns([]PageRun{{Start: first + PagesPerExtent, Len: PagesPerExtent}}) // extent 1 queued
		mustPanic(t, "FreeRuns reaching into a queued extent", func() {
			a.FreeRuns([]PageRun{{Start: first + 4, Len: 6}})
		})
		b := NewAllocator(16)
		b.AllocRequest(PagesPerExtent) // extent 0 allocated, extent 1 in the GAM
		mustPanic(t, "FreeRuns reaching into a GAM extent", func() {
			b.FreeRuns([]PageRun{{Start: 4, Len: 6}})
		})
	})
}

// TestFreeRunsMasksPartialExtents: a run that starts and ends inside
// extents frees exactly its pages, completes exactly the extents whose
// other pages were free already, and queues them in address order.
func TestFreeRunsMasksPartialExtents(t *testing.T) {
	a := NewAllocator(8)
	if _, ok := a.AllocRequest(4 * PagesPerExtent); !ok { // extents 0-3
		t.Fatal("alloc failed")
	}
	a.FreeRuns([]PageRun{{Start: 5, Len: 22}}) // 5..26: tail of 0, all of 1 and 2, head of 3
	if got, want := a.FreePages(), int64(4*PagesPerExtent+22); got != want {
		t.Fatalf("FreePages = %d, want %d", got, want)
	}
	if a.ReuseQueueLen() != 2 || a.PartialExtents() != 2 {
		t.Fatalf("queue %d, partial %d; want 2 and 2", a.ReuseQueueLen(), a.PartialExtents())
	}
	a.CheckInvariants()
	a.FreeRuns([]PageRun{{Start: 27, Len: 5}, {Start: 0, Len: 5}}) // completes 3, then 0
	if a.ReuseQueueLen() != 4 || a.PartialExtents() != 0 {
		t.Fatalf("queue %d, partial %d; want 4 and 0", a.ReuseQueueLen(), a.PartialExtents())
	}
	runs, _ := a.AllocRequest(4 * PagesPerExtent) // FIFO: 1, 2, 3, 0
	if want := []PageRun{{8, 24}, {0, 8}}; !slices.Equal(runs, want) {
		t.Fatalf("deallocation cache order: got %v, want %v", runs, want)
	}
	a.CheckInvariants()
}

// TestFreshExtentsGoOutInAddressOrder: the deallocation cache is drained
// first, then never-used extents go out in address order from where the
// last one left off, until none is left.
func TestFreshExtentsGoOutInAddressOrder(t *testing.T) {
	a := NewAllocator(8)
	if _, ok := a.AllocRequest(3 * PagesPerExtent); !ok { // extents 0-2
		t.Fatal("alloc failed")
	}
	a.FreeRuns([]PageRun{{Start: PagesPerExtent, Len: PagesPerExtent}}) // extent 1 queued
	runs, _ := a.AllocRequest(3 * PagesPerExtent)                       // queued 1, then fresh 3 and 4
	if want := []PageRun{{8, 8}, {24, 16}}; !slices.Equal(runs, want) {
		t.Fatalf("got %v, want %v", runs, want)
	}
	runs, _ = a.AllocRequest(3 * PagesPerExtent) // fresh 5-7
	if want := []PageRun{{40, 24}}; !slices.Equal(runs, want) {
		t.Fatalf("got %v, want %v", runs, want)
	}
	if _, ok := a.AllocRequest(1); ok {
		t.Fatal("allocation succeeded on a full volume")
	}
	a.CheckInvariants()
}

// TestSpacePressureRaidsLowestPartialExtent: with no wholly-free extent
// left, page allocations drain the lowest partly used extent first, then
// the next.
func TestSpacePressureRaidsLowestPartialExtent(t *testing.T) {
	a := NewAllocator(4)
	if _, ok := a.AllocRequest(4 * PagesPerExtent); !ok {
		t.Fatal("alloc failed")
	}
	// Free pages in extent 3, then in extent 1.
	a.FreeRuns([]PageRun{{Start: 3*PagesPerExtent + 2, Len: 3}, {Start: PagesPerExtent + 5, Len: 2}})
	runs, ok := a.AllocPages(4)
	if want := []PageRun{{13, 2}, {26, 2}}; !ok || !slices.Equal(runs, want) {
		t.Fatalf("got %v %v, want %v", runs, ok, want)
	}
	if a.PartialExtents() != 1 || a.FreePages() != 1 {
		t.Fatalf("partial %d, free %d; want 1 and 1", a.PartialExtents(), a.FreePages())
	}
	a.CheckInvariants()
}

// refAllocator is the allocator as it was before its books went
// run-granular, kept as the differential oracle: a page at a time, the
// PFS a map with an entry per partly used extent.
type refAllocator struct {
	extents       int64
	gam           []bool
	pfs           map[int64]uint8
	cursor, mixed int64
	reuse         []int64
	free          int64

	raids, wrappedRaids int
}

func newRefAllocator(extents int64) *refAllocator {
	r := &refAllocator{extents: extents, gam: make([]bool, extents), pfs: map[int64]uint8{}, mixed: -1, free: extents * PagesPerExtent}
	for i := range r.gam {
		r.gam[i] = true
	}
	return r
}

func (r *refAllocator) takeFreeExtent() int64 {
	if len(r.reuse) > 0 {
		e := r.reuse[0]
		r.reuse = r.reuse[1:]
		return e
	}
	for i := int64(0); i < r.extents; i++ {
		if e := (r.cursor + i) % r.extents; r.gam[e] {
			r.gam[e] = false
			r.cursor = (e + 1) % r.extents
			return e
		}
	}
	return -1
}

func (r *refAllocator) allocPages(n int64) ([]PageID, bool) {
	if r.free < n {
		return nil, false
	}
	var pages []PageID
	for n > 0 {
		if mask := r.pfs[r.mixed]; r.mixed >= 0 && mask != 0 {
			for ; mask != 0 && n > 0; n-- {
				p := bits.TrailingZeros8(mask)
				mask &^= 1 << uint(p)
				pages = append(pages, PageID(r.mixed*PagesPerExtent+int64(p)))
				r.free--
			}
			if r.pfs[r.mixed] = mask; mask == 0 {
				delete(r.pfs, r.mixed)
			}
			continue
		}
		if e := r.takeFreeExtent(); e != -1 {
			r.pfs[e] = 0xFF
			r.mixed = e
			continue
		}
		// Space pressure: the first partial extent at or after the
		// cursor, else the lowest one.
		ahead, lowest := int64(-1), int64(-1)
		for e := range r.pfs {
			if e >= r.cursor && (ahead == -1 || e < ahead) {
				ahead = e
			}
			if lowest == -1 || e < lowest {
				lowest = e
			}
		}
		r.raids++
		if r.mixed = ahead; ahead == -1 {
			r.mixed = lowest
			r.wrappedRaids++
		}
	}
	return pages, true
}

func (r *refAllocator) allocRequest(n int64) ([]PageID, bool) {
	if r.free < n {
		return nil, false
	}
	var pages []PageID
	for n >= PagesPerExtent {
		e := r.takeFreeExtent()
		if e == -1 {
			break
		}
		for p := int64(0); p < PagesPerExtent; p++ {
			pages = append(pages, PageID(e*PagesPerExtent+p))
		}
		r.free -= PagesPerExtent
		n -= PagesPerExtent
	}
	if n > 0 {
		tail, _ := r.allocPages(n)
		pages = append(pages, tail...)
	}
	return pages, true
}

func (r *refAllocator) freePage(p PageID) {
	e, bit := int64(p)/PagesPerExtent, uint8(1)<<uint(int64(p)%PagesPerExtent)
	mask := r.pfs[e] | bit
	r.free++
	if mask == 0xFF {
		delete(r.pfs, e)
		r.reuse = append(r.reuse, e)
	} else {
		r.pfs[e] = mask
	}
}

// coalescePages is the page-list model of a run list: the maximal
// physically contiguous runs of a logical page sequence.
func coalescePages(pages []PageID) []PageRun {
	var out []PageRun
	for _, p := range pages {
		if n := len(out); n > 0 && out[n-1].End() == p {
			out[n-1].Len++
		} else {
			out = append(out, PageRun{Start: p, Len: 1})
		}
	}
	return out
}

// TestAllocatorMatchesPageAtATimeReference drives the allocator and the
// reference with the same seeded op sequences on small, mostly full
// volumes — whole requests, page allocations, frees of whole allocations,
// of sub-runs cut at arbitrary pages and of single pages — and requires
// identical returned runs and identical counters after every step. The
// volumes are small enough that the space-pressure path raids partial
// extents. No raid wraps past the cursor: nothing returns an extent to
// the GAM, so the GAM scan has taken every extent in order, and left
// the cursor at 0, before the first raid.
func TestAllocatorMatchesPageAtATimeReference(t *testing.T) {
	raids, wrapped := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		extents := int64(4 + rng.Intn(60))
		a, ref := NewAllocator(extents), newRefAllocator(extents)
		var held []PageRun // everything allocated and not yet freed
		step := func(op string) {
			t.Helper()
			if a.FreePages() != ref.free || a.PartialExtents() != len(ref.pfs) || a.ReuseQueueLen() != len(ref.reuse) {
				t.Fatalf("seed %d after %s: free %d/%d partial %d/%d queued %d/%d (allocator/reference)", seed, op,
					a.FreePages(), ref.free, a.PartialExtents(), len(ref.pfs), a.ReuseQueueLen(), len(ref.reuse))
			}
			a.CheckInvariants()
		}
		alloc := func(op string, got []PageRun, ok bool, want []PageID, wantOK bool) {
			t.Helper()
			if ok != wantOK || !slices.Equal(got, coalescePages(want)) {
				t.Fatalf("seed %d %s: got %v %v, reference %v %v", seed, op, got, ok, coalescePages(want), wantOK)
			}
			held = append(held, got...) // got is the allocator's scratch
			step(op)
		}
		for i := 0; i < 600; i++ {
			// Keep the volume near full so allocations fight over scraps.
			switch k := rng.Intn(10); {
			case k < 3 || len(held) == 0 && k < 9:
				n := int64(1 + rng.Intn(3*PagesPerExtent))
				got, ok := a.AllocRequest(n)
				want, wantOK := ref.allocRequest(n)
				alloc(fmt.Sprintf("AllocRequest(%d)", n), got, ok, want, wantOK)
			case k < 5:
				n := int64(1 + rng.Intn(PagesPerExtent+4))
				got, ok := a.AllocPages(n)
				want, wantOK := ref.allocPages(n)
				alloc(fmt.Sprintf("AllocPages(%d)", n), got, ok, want, wantOK)
			case k < 9 && len(held) > 0:
				// Free a sub-run of a held run; the rest stays held.
				j := rng.Intn(len(held))
				r := held[j]
				lo := int64(rng.Intn(int(r.Len)))
				n := 1 + int64(rng.Intn(int(r.Len-lo)))
				if rng.Intn(3) == 0 {
					lo, n = 0, r.Len
				}
				cut := PageRun{Start: r.Start + PageID(lo), Len: n}
				held = slices.Delete(held, j, j+1)
				if lo > 0 {
					held = append(held, PageRun{Start: r.Start, Len: lo})
				}
				if rest := r.Len - lo - n; rest > 0 {
					held = append(held, PageRun{Start: cut.End(), Len: rest})
				}
				if n == 1 {
					a.FreePage(cut.Start)
				} else {
					a.FreeRuns([]PageRun{cut})
				}
				for p := cut.Start; p < cut.End(); p++ {
					ref.freePage(p)
				}
				step(fmt.Sprintf("free of %v", cut))
			}
		}
		// Everything comes back, in one FreeRuns over many runs.
		a.FreeRuns(held)
		for _, r := range held {
			for p := r.Start; p < r.End(); p++ {
				ref.freePage(p)
			}
		}
		step("final FreeRuns")
		if a.FreePages() != extents*PagesPerExtent {
			t.Fatalf("seed %d: %d pages free of %d after freeing everything", seed, a.FreePages(), extents*PagesPerExtent)
		}
		raids, wrapped = raids+ref.raids, wrapped+ref.wrappedRaids
	}
	if raids < 100 || wrapped != 0 {
		t.Fatalf("space-pressure path: %d raids, %d of them wrapped; want at least 100, none wrapped", raids, wrapped)
	}
}

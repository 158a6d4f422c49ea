// Package alloc implements the disk-space allocation policies discussed in
// the paper: the classic baselines from the malloc and filesystem
// literature (§3.2, §3.4 — first fit, best fit, worst fit, next fit, and
// the DTSS buddy system) and an NTFS-style run-cache allocator (§2) used
// by the filesystem substrate.
//
// Following the paper's borrowing from the malloc literature (Wilson et
// al.), the package separates *policies* (which free run to pick) from the
// *mechanism* (package extent's free-run index: runs in offset order,
// summarised by the longest run in each bucket).
//
// All policies allocate in clusters and may return multiple runs when a
// request cannot be satisfied contiguously — that is exactly the file
// fragmentation the paper measures.
package alloc

import (
	"errors"
	"fmt"

	"repro/internal/extent"
)

// ErrNoSpace is returned when the volume cannot satisfy a request.
var ErrNoSpace = errors.New("alloc: out of space")

// Policy is a cluster allocator. Implementations are not safe for
// concurrent use.
type Policy interface {
	// Alloc returns runs totalling exactly n clusters. The result may be
	// fragmented. It returns ErrNoSpace when fewer than n clusters are
	// free (partial allocations are never retained).
	Alloc(n int64) ([]extent.Run, error)

	// Free returns a run to the pool.
	Free(r extent.Run)

	// FreeClusters reports the total free clusters.
	FreeClusters() int64
}

// fitKind selects the classic policy variant.
type fitKind int

const (
	firstFit fitKind = iota
	bestFit
	worstFit
	nextFit
)

// fitPolicy implements first/best/worst/next fit over a FreeIndex. When the
// request does not fit in any single run, it fragments by repeatedly taking
// the policy-preferred run (matching how real systems degrade: §2 "If that
// fails, the file is fragmented").
type fitPolicy struct {
	kind   fitKind
	idx    *extent.FreeIndex
	cursor int64 // next-fit scan position
}

// NewFirstFit returns a lowest-offset first-fit allocator over a volume of
// the given size in clusters.
func NewFirstFit(clusters int64) Policy { return newFit(firstFit, clusters) }

// NewBestFit returns a smallest-sufficient-run allocator.
func NewBestFit(clusters int64) Policy { return newFit(bestFit, clusters) }

// NewWorstFit returns a largest-run allocator.
func NewWorstFit(clusters int64) Policy { return newFit(worstFit, clusters) }

// NewNextFit returns a roving-cursor first-fit allocator.
func NewNextFit(clusters int64) Policy { return newFit(nextFit, clusters) }

func newFit(kind fitKind, clusters int64) *fitPolicy {
	if clusters <= 0 {
		panic(fmt.Sprintf("alloc: bad volume size %d", clusters))
	}
	idx := extent.NewFreeIndex()
	idx.Free(extent.Run{Start: 0, Len: clusters})
	return &fitPolicy{kind: kind, idx: idx}
}

func (p *fitPolicy) FreeClusters() int64 { return p.idx.FreeClusters() }
func (p *fitPolicy) Free(r extent.Run)   { p.idx.Free(r) }

func (p *fitPolicy) takeContig(n int64) (extent.Run, bool) {
	switch p.kind {
	case firstFit:
		return p.idx.TakeFirstFit(n)
	case bestFit:
		return p.idx.TakeBestFit(n)
	case worstFit:
		return p.idx.TakeWorstFit(n)
	case nextFit:
		r, cur, ok := p.idx.TakeNextFit(n, p.cursor)
		if ok {
			p.cursor = cur
		}
		return r, ok
	}
	panic("alloc: unknown fit kind")
}

func (p *fitPolicy) Alloc(n int64) ([]extent.Run, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: invalid request %d", n)
	}
	if p.idx.FreeClusters() < n {
		return nil, ErrNoSpace
	}
	if r, ok := p.takeContig(n); ok {
		return []extent.Run{r}, nil
	}
	// Fragment: repeatedly take the largest available run.
	var out []extent.Run
	remaining := n
	for remaining > 0 {
		r, ok := p.idx.TakeUpTo(remaining)
		if !ok {
			for _, u := range out { // roll back; cannot happen given guard
				p.idx.Free(u)
			}
			return nil, ErrNoSpace
		}
		out = append(out, r)
		remaining -= r.Len
	}
	return out, nil
}

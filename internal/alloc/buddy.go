package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/extent"
)

// Buddy implements the DTSS-style buddy-system allocator the paper cites
// as an early fragmentation-bounding design (§3.4, Koch's disk file
// allocation). Requests round up to powers of two; blocks split and merge
// with their buddies. This bounds external fragmentation at the price of
// internal fragmentation — the very property that "was problematic for
// applications that created large files".
type Buddy struct {
	clusters int64
	maxOrder int
	// freeAt[k] holds the starts of free blocks of size 1<<k.
	freeAt []map[int64]struct{}
	free   int64
}

// NewBuddy creates a buddy allocator over a volume of the given size in
// clusters. Sizes that are not powers of two waste the trailing remainder,
// as the original systems did.
func NewBuddy(clusters int64) *Buddy {
	if clusters <= 0 {
		panic(fmt.Sprintf("alloc: bad volume size %d", clusters))
	}
	maxOrder := bits.Len64(uint64(clusters)) - 1
	b := &Buddy{
		clusters: int64(1) << maxOrder,
		maxOrder: maxOrder,
		freeAt:   make([]map[int64]struct{}, maxOrder+1),
	}
	for k := range b.freeAt {
		b.freeAt[k] = make(map[int64]struct{})
	}
	b.freeAt[maxOrder][0] = struct{}{}
	b.free = b.clusters
	return b
}

// FreeClusters implements Policy. Note that internal fragmentation means
// an Alloc(n) may consume more than n free clusters.
func (b *Buddy) FreeClusters() int64 { return b.free }

func orderFor(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// Alloc allocates a single block of the smallest power of two >= n.
// The returned run has the rounded length: the caller sees the internal
// fragmentation, mirroring GFS-style zero padding (§3.4).
func (b *Buddy) Alloc(n int64) ([]extent.Run, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: invalid request %d", n)
	}
	k := orderFor(n)
	if k > b.maxOrder {
		return nil, ErrNoSpace
	}
	// Find the smallest order >= k with a free block.
	j := k
	for j <= b.maxOrder && len(b.freeAt[j]) == 0 {
		j++
	}
	if j > b.maxOrder {
		return nil, ErrNoSpace
	}
	var start int64
	for s := range b.freeAt[j] {
		start = s
		break
	}
	delete(b.freeAt[j], start)
	// Split down to order k, returning the upper halves to the free lists.
	for j > k {
		j--
		buddy := start + (int64(1) << j)
		b.freeAt[j][buddy] = struct{}{}
	}
	size := int64(1) << k
	b.free -= size
	return []extent.Run{{Start: start, Len: size}}, nil
}

// Free returns a block allocated by Alloc. The run length must be the
// power-of-two size that Alloc returned.
func (b *Buddy) Free(r extent.Run) {
	k := orderFor(r.Len)
	if int64(1)<<k != r.Len {
		panic(fmt.Sprintf("alloc: buddy free of non-power-of-two run %v", r))
	}
	start := r.Start
	b.free += r.Len
	for k < b.maxOrder {
		buddy := start ^ (int64(1) << k)
		if _, ok := b.freeAt[k][buddy]; !ok {
			break
		}
		delete(b.freeAt[k], buddy)
		if buddy < start {
			start = buddy
		}
		k++
	}
	b.freeAt[k][start] = struct{}{}
}

var _ Policy = (*Buddy)(nil)

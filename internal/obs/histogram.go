package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: log-scaled with subCount sub-buckets per
// power of two (HDR-style). A value v > 0 lands in the bucket whose
// index is exponent*subCount + the next subBits bits of the mantissa,
// which bounds the relative width of every bucket at 1/subCount
// (≈ 6.25%) — tight enough that an interpolated p999 is meaningful,
// small enough that a histogram is ~3 KB of counters.
const (
	subBits   = 4
	subCount  = 1 << subBits // sub-buckets per power of two
	maxExp    = 50           // covers up to ~2^50 ns ≈ 13 virtual days
	numBucket = maxExp * subCount
)

// bucketIndex maps a positive value to its bucket. Monotonic in v.
func bucketIndex(v int64) int {
	u := uint64(v)
	e := bits.Len64(u) - 1 // floor(log2 v)
	var frac uint64
	if e >= subBits {
		frac = (u >> (uint(e) - subBits)) & (subCount - 1)
	} else {
		frac = (u << (subBits - uint(e))) & (subCount - 1)
	}
	idx := e*subCount + int(frac)
	if idx >= numBucket {
		idx = numBucket - 1
	}
	return idx
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) int64 {
	e := idx / subCount
	frac := int64(idx % subCount)
	if e >= subBits {
		return (subCount + frac) << (uint(e) - subBits)
	}
	return (subCount + frac) >> (subBits - uint(e))
}

// bucketUpper returns the largest value mapping to bucket idx. Below
// subCount the sub-bucket grid is finer than the integers, so adjacent
// buckets share a lower bound; clamp so upper never drops below lower.
func bucketUpper(idx int) int64 {
	if idx+1 >= numBucket {
		return 1 << 62
	}
	lo := bucketLower(idx)
	if hi := bucketLower(idx+1) - 1; hi > lo {
		return hi
	}
	return lo
}

// Histogram is a concurrent log-bucketed latency histogram over
// virtual-clock nanoseconds. Recording is a handful of atomic adds —
// no locks, no allocation — so k executor streams can record into one
// histogram while another goroutine snapshots it. Values ≤ 0 land in a
// dedicated zero bucket (an all-hit memory read can round to zero
// virtual ns).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	zero    atomic.Int64 // observations ≤ 0
	buckets [numBucket]atomic.Int64
}

// NewHistogram returns an empty histogram. Registries create them on
// demand; standalone use (per-stream histograms merged later) is also
// supported.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1) << 62)
	return h
}

// Observe records one value in virtual nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.count.Add(1)
	if ns <= 0 {
		h.zero.Add(1)
		for {
			old := h.min.Load()
			if old <= 0 || h.min.CompareAndSwap(old, 0) {
				break
			}
		}
		return
	}
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
	for {
		old := h.min.Load()
		if ns >= old || h.min.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// reset zeroes the histogram in place (Registry.Reset).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(int64(1) << 62)
	h.max.Store(0)
	h.zero.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot copies the histogram for analysis. A snapshot taken while
// recording continues is internally consistent per bucket (each count
// is atomic) though not across buckets — fine for reporting, which
// runs at phase boundaries.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Zero:    h.zero.Load(),
		Max:     h.max.Load(),
		Buckets: make([]int64, numBucket),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the q-quantile (0..1) in virtual nanoseconds; see
// HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is an immutable copy of a Histogram. Snapshots
// merge: the merge of per-stream snapshots is bucket-for-bucket equal
// to one histogram that observed every stream's values, so per-stream
// and global views never disagree.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Zero    int64
	Min     int64
	Max     int64
	Buckets []int64
}

// Merge folds o into s (commutative and associative).
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min = o.Min
	} else if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Zero += o.Zero
	if len(s.Buckets) == 0 {
		s.Buckets = make([]int64, numBucket)
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Mean returns the mean observation in virtual nanoseconds.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0..1) in the registry's unit,
// linearly interpolated inside the covering bucket and clamped to the
// observed min/max so p999 can never exceed the recorded maximum. A nil
// or empty snapshot reads 0.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	if rank <= s.Zero {
		return 0
	}
	seen := s.Zero
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			// Interpolate position within the bucket.
			frac := float64(rank-seen) / float64(n)
			v := int64(float64(lo) + frac*float64(hi-lo))
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		seen += n
	}
	return s.Max
}

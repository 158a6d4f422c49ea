package main

import (
	"sort"
	"time"
)

// The reference host is a small VM on a shared machine whose speed is not
// constant: for spells of seconds to minutes its neighbours slow every kind
// of work on it, a pure spin loop by a tenth, memory-bound code by a third
// and more. Whole runs fall inside such spells, so no statistic over a
// run's rounds removes them. What does is a yardstick: a fixed piece of
// work that belongs to the bench and never changes, timed next to every
// round. A round's wall-clock results are reported at reference speed,
// that is scaled by how fast the yardstick ran around that round relative
// to refNominal. Per round, yardstick speed and the workloads' throughput
// correlate at 0.8-0.9 (40 runs, README.md), and scaling cut the distance
// between the slowest and the fastest of those runs from 1.40x to 1.10x
// (sim_fs_aged) and from 1.86x to 1.40x (served_small_meta).

// refKernel is the yardstick: searches in a sorted table larger than the L2
// cache, updates of a hash map of a few MB, and block copies — the kinds of
// work the store stack does, in none of its code.
type refKernel struct {
	table []uint64
	m     map[uint64]uint64
	src   []byte
	dst   []byte
	x     uint64
}

const (
	refTableLen = 1 << 20 // 8 MB of keys, 4096 apart
	refMapLen   = 1 << 17
	// refWindow is how long one reading of the yardstick runs.
	refWindow = 40 * time.Millisecond
	// refNominal is the yardstick's speed, in iterations per second, on the
	// reference host when nothing disturbs it. It only fixes the scale, so
	// that values there read as measured; a host twice as fast throughout
	// reads the yardstick at 2 and reports the same values.
	refNominal = 2.3e6
)

func newRefKernel() *refKernel {
	k := &refKernel{
		table: make([]uint64, refTableLen),
		m:     make(map[uint64]uint64, refMapLen),
		src:   make([]byte, 64<<10),
		dst:   make([]byte, 64<<10),
		x:     1,
	}
	for i := range k.table {
		k.table[i] = uint64(i) * 4096
	}
	for i := uint64(0); i < refMapLen; i++ {
		k.m[i] = i
	}
	k.read() // the first touch of its memory is not a reading
	return k
}

// read runs the kernel for refWindow and returns its rate as a share of
// refNominal: 1 on the undisturbed reference host, less when the host is
// slower.
func (k *refKernel) read() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < refWindow {
		for i := 0; i < 200; i++ {
			k.x ^= k.x << 13
			k.x ^= k.x >> 7
			k.x ^= k.x << 17
			key := k.x % (refTableLen * 4096)
			j := sort.Search(refTableLen, func(i int) bool { return k.table[i] >= key })
			k.m[k.x&(refMapLen-1)] += uint64(j)
			if i%16 == 0 {
				copy(k.dst, k.src)
			}
		}
		n += 200
	}
	return float64(n) / time.Since(t0).Seconds() / refNominal
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
)

// The bench owns its inputs: every key, size, op kind and payload byte
// a workload sends is generated here from --seed, and the program under
// test only ever receives these generated inputs. Sizes are multiples
// of 4 KB so file and database cluster accounting line up.

const sizeQuantum = 4 << 10

// opKind is one operation of a generated op list.
type opKind uint8

const (
	opCreate opKind = iota
	opReplace
	opRead      // whole-object read
	opReadRange // ranged read [off, off+n)
	opDelete
	opStat
)

var opKindNames = [...]string{"create", "replace", "read", "read_range", "delete", "stat"}

func (k opKind) String() string { return opKindNames[k] }

// isWrite reports whether the op commits a new object version.
func (k opKind) isWrite() bool { return k == opCreate || k == opReplace }

// genOp is one generated operation. key indexes the owning list's key
// table. For writes size and ver are the new version; for reads they are
// what the generator's model says the store must return.
type genOp struct {
	kind   opKind
	key    int32
	ver    uint32
	size   int64
	off, n int64
}

// opList is the input of one client (or of the single simulator stream):
// its keys, the setup ops that build the start state, the warm-up reads,
// and the timed ops of one round, cut into equal-op-count segments.
type opList struct {
	keys     []string
	setup    []genOp
	warm     []genOp
	segments [][]genOp

	// End state according to the generator's model, for the end-of-round
	// check against what the store reports.
	endObjects int
	endBytes   int64
	endSize    []int64  // by key index; -1 when deleted
	endVer     []uint32 // by key index
}

func (l *opList) timedOps() int {
	n := 0
	for _, s := range l.segments {
		n += len(s)
	}
	return n
}

// sweepOps lists the end-of-round sweeps over the list's end state: one
// whole read of every live object, and a same-size replace of the first
// maxWrites of them.
func (l *opList) sweepOps(maxWrites int) (reads, writes []genOp) {
	for k, size := range l.endSize {
		if size < 0 {
			continue
		}
		reads = append(reads, genOp{kind: opRead, key: int32(k), ver: l.endVer[k], size: size})
		if len(writes) < maxWrites {
			writes = append(writes, genOp{kind: opReplace, key: int32(k), ver: l.endVer[k] + 1, size: size})
		}
	}
	return
}

// model tracks what the store must hold while a list is generated.
type model struct {
	size []int64
	ver  []uint32
	live int64
	dead int64 // bytes of retired versions, for storage age
}

func newModel(keys int) *model {
	m := &model{size: make([]int64, keys), ver: make([]uint32, keys)}
	for i := range m.size {
		m.size[i] = -1
	}
	return m
}

// write emits a create or replace of key with a fresh version.
func (m *model) write(kind opKind, key int32, size int64) genOp {
	if old := m.size[key]; old >= 0 {
		m.live -= old
		m.dead += old
	}
	m.size[key] = size
	m.ver[key]++
	m.live += size
	return genOp{kind: kind, key: key, ver: m.ver[key], size: size}
}

func (m *model) read(key int32) genOp {
	return genOp{kind: opRead, key: key, ver: m.ver[key], size: m.size[key]}
}

func (m *model) del(key int32) genOp {
	m.live -= m.size[key]
	m.dead += m.size[key]
	m.size[key] = -1
	return genOp{kind: opDelete, key: key}
}

func (m *model) age() float64 { return float64(m.dead) / float64(m.live) }

func (m *model) finish(l *opList) {
	l.endSize, l.endVer = m.size, m.ver
	l.endBytes = m.live
	for _, s := range m.size {
		if s >= 0 {
			l.endObjects++
		}
	}
}

// uniformSize draws a size uniform on [lo, hi], rounded up to 4 KB.
func uniformSize(rng *rand.Rand, lo, hi int64) int64 {
	s := lo
	if hi > lo {
		s += rng.Int63n(hi - lo + 1)
	}
	return (s + sizeQuantum - 1) / sizeQuantum * sizeQuantum
}

// zipf picks ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) pick(rng *rand.Rand) int32 {
	return int32(sort.SearchFloat64s(z.cdf, rng.Float64()))
}

// genSim builds the lists of the sim_* workloads, one per volume. How a
// volume fragments depends on the exact sequence it saw, so one round
// ages several independent volumes and reports over all of them.
func genSim(seed int64, p simParams) []*opList {
	lists := make([]*opList, p.volumes)
	for v := range lists {
		lists[v] = genSimVolume(seed*1000003+int64(v), p)
	}
	return lists
}

// genSimVolume builds one volume's single-stream list: bulk load to the
// target occupancy, churn to the start age, then cycles of [replaces,
// read sweep]. Each cycle is two segments (writes, reads).
func genSimVolume(seed int64, p simParams) *opList {
	rng := rand.New(rand.NewSource(seed))
	var sizes []int64
	var total int64
	target := int64(float64(p.capacity) * p.occupancy)
	for {
		s := uniformSize(rng, p.sizeLo, p.sizeHi)
		if total+s > target {
			break
		}
		sizes = append(sizes, s)
		total += s
	}
	n := len(sizes)
	l := &opList{keys: make([]string, n)}
	m := newModel(n)
	for i, s := range sizes {
		l.keys[i] = fmt.Sprintf("obj%06d", i)
		l.setup = append(l.setup, m.write(opCreate, int32(i), s))
	}
	m.dead = 0 // age 0 is the freshly loaded store
	replace := func() genOp {
		return m.write(opReplace, int32(rng.Intn(n)), uniformSize(rng, p.sizeLo, p.sizeHi))
	}
	for m.age() < p.startAge {
		l.setup = append(l.setup, replace())
	}
	for c := 0; c < p.cycles; c++ {
		w := make([]genOp, p.writesPerCycle)
		for i := range w {
			w[i] = replace()
		}
		r := make([]genOp, p.readsPerCycle)
		for i := range r {
			r[i] = m.read(int32(rng.Intn(n)))
		}
		l.segments = append(l.segments, w, r)
	}
	m.finish(l)
	return l
}

// genServed builds one list per client of a served_* workload. Clients
// own disjoint key partitions ("c<client>/<index>"), so one client's
// model is exact whatever the others do.
func genServed(seed int64, p servedParams, clients int) []*opList {
	lists := make([]*opList, clients)
	for c := range lists {
		// One independent stream per client, so the client count changes
		// how much is generated but not what client 0 does.
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		n := p.objects / clients
		l := &opList{keys: make([]string, n)}
		m := newModel(n)
		for i := range l.keys {
			l.keys[i] = fmt.Sprintf("c%d/%05d", c, i)
			l.setup = append(l.setup, m.write(opCreate, int32(i), uniformSize(rng, p.sizeLo, p.sizeHi)))
		}
		pick := func() int32 { return int32(rng.Intn(n)) }
		if p.zipf {
			// Rank r maps to key perm[r], so the hot set is spread over
			// the key space and over the shards.
			z, perm := newZipf(n, 1.0), rng.Perm(n)
			pick = func() int32 { return int32(perm[z.pick(rng)]) }
		}
		for i := 0; i < p.warmReads/clients; i++ {
			l.warm = append(l.warm, m.read(pick()))
		}
		iters := p.itersPerSegment / clients
		for s := 0; s < p.segments; s++ {
			var seg []genOp
			for i := 0; i < iters; i++ {
				seg = append(seg, m.write(opReplace, int32(rng.Intn(n)), uniformSize(rng, p.sizeLo, p.sizeHi)))
				seg = append(seg, m.read(pick()), m.read(pick()))
				if p.extrasEvery > 0 && i%p.extrasEvery == p.extrasEvery-1 {
					k := pick()
					size := m.size[k]
					off := rng.Int63n(size/sizeQuantum) * sizeQuantum
					seg = append(seg, genOp{kind: opReadRange, key: k, ver: m.ver[k], size: size, off: off, n: sizeQuantum})
					k = int32(rng.Intn(n))
					seg = append(seg, m.del(k))
					seg = append(seg, m.write(opCreate, k, uniformSize(rng, p.sizeLo, p.sizeHi)))
					k = pick()
					seg = append(seg, genOp{kind: opStat, key: k, ver: m.ver[k], size: m.size[k]})
				}
			}
			l.segments = append(l.segments, seg)
		}
		m.finish(l)
		lists[c] = l
	}
	return lists
}

// digest fingerprints generated lists: same seed, same digest.
func digest(lists ...*opList) string {
	h := sha256.New()
	for _, l := range lists {
		for _, k := range l.keys {
			h.Write([]byte(k))
		}
		hashOps(h, l.setup)
		hashOps(h, l.warm)
		for _, s := range l.segments {
			hashOps(h, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashOps(h hash.Hash, ops []genOp) {
	var b [33]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.key))
		binary.LittleEndian.PutUint32(b[5:], o.ver)
		binary.LittleEndian.PutUint64(b[9:], uint64(o.size))
		binary.LittleEndian.PutUint64(b[17:], uint64(o.off))
		binary.LittleEndian.PutUint64(b[25:], uint64(o.n))
		h.Write(b[:])
	}
}

// Payload bytes are derived from key and version alone, so a reader can
// check any object without remembering what was written. Each 4 KB block
// is one pseudo-random template block with the block index stamped over
// its first 8 bytes: cheap to make and to check, and a block served from
// the wrong object, version or offset does not match.

func payloadTemplate(key string, ver uint32) []byte {
	x := uint64(ver)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := 0; i < len(key); i++ {
		x = (x ^ uint64(key[i])) * 0x100000001B3
	}
	t := make([]byte, sizeQuantum)
	for i := 0; i < len(t); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(t[i:], x)
	}
	return t
}

// fillPayload writes the payload of (key, ver) into buf, whose length is
// a multiple of 4 KB.
func fillPayload(buf []byte, key string, ver uint32) {
	t := payloadTemplate(key, ver)
	for b := 0; b*sizeQuantum < len(buf); b++ {
		blk := buf[b*sizeQuantum : (b+1)*sizeQuantum]
		copy(blk, t)
		binary.LittleEndian.PutUint64(blk, uint64(b))
	}
}

// checkPayload reports whether got is exactly bytes [off, off+len(got))
// of the payload of (key, ver); off and len(got) are multiples of 4 KB.
func checkPayload(got []byte, key string, ver uint32, off int64) bool {
	if len(got)%sizeQuantum != 0 {
		return false
	}
	t := payloadTemplate(key, ver)
	first := off / sizeQuantum
	for b := 0; b*sizeQuantum < len(got); b++ {
		blk := got[b*sizeQuantum : (b+1)*sizeQuantum]
		if binary.LittleEndian.Uint64(blk) != uint64(first)+uint64(b) || string(blk[8:]) != string(t[8:]) {
			return false
		}
	}
	return true
}

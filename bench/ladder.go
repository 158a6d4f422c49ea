package main

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/fs"
	"repro/internal/vclock"
)

// The layers below core are built inside core's constructors, so no shim
// can be interposed between them. Their rungs time direct calls to their
// public functions instead, driven by the workload's own sizes and
// request sequence: the setup ops (untimed) build the aged state, then up
// to maxRungOps of the timed ops are measured. Payloads are left out
// (metadata mode) except on the disk data-mode rung.

const (
	maxRungOps  = 20000
	requestSize = 64 << 10 // the append request size core uses
	clusterSize = 4 << 10
)

// rungSeq is the op sequence a rung replays.
type rungSeq struct {
	keys     []string
	setup    []genOp
	timed    []genOp
	capacity int64
}

func newRungSeq(l *opList, capacity int64) rungSeq {
	s := rungSeq{keys: l.keys, setup: l.setup, capacity: capacity}
	for _, seg := range l.segments {
		s.timed = append(s.timed, seg...)
	}
	s.timed = s.timed[:min(len(s.timed), maxRungOps)]
	return s
}

// opTimer sums wall time by op class.
type opTimer struct {
	ns [2]int64 // read, write
	n  [2]int64
}

func (t *opTimer) time(write bool, f func() error) error {
	t0 := time.Now()
	err := f()
	c := 0
	if write {
		c = 1
	}
	t.ns[c] += int64(time.Since(t0))
	t.n[c]++
	return err
}

func (t *opTimer) perOp(class int) float64 {
	if t.n[class] == 0 {
		return 0
	}
	return float64(t.ns[class]) / float64(t.n[class])
}

// replay runs setup untimed and the timed ops through do.
func (s rungSeq) replay(do func(o genOp, timed bool) error) error {
	for _, o := range s.setup {
		if err := do(o, false); err != nil {
			return fmt.Errorf("rung setup %s %s: %w", o.kind, s.keys[o.key], err)
		}
	}
	for _, o := range s.timed {
		if err := do(o, true); err != nil {
			return fmt.Errorf("rung %s %s: %w", o.kind, s.keys[o.key], err)
		}
	}
	return nil
}

// rungFS drives fs.Volume the way core.FileStore does: a safe write is
// Create(temp) + Append in 64 KB requests + Close + Rename; a read is
// Open + ReadAll.
func rungFS(s rungSeq, m map[string]float64) error {
	vol := fs.Format(disk.New(disk.DefaultGeometry(s.capacity), vclock.New(), disk.MetadataMode), fs.Config{})
	var t opTimer
	var before fs.Stats
	started := false
	err := s.replay(func(o genOp, timed bool) error {
		if timed && !started {
			started, before = true, vol.Stats()
		}
		key := s.keys[o.key]
		var f func() error
		switch o.kind {
		case opCreate, opReplace:
			f = func() error {
				tmp := fs.TempName(key)
				file, err := vol.Create(tmp)
				if err != nil {
					return err
				}
				for off := int64(0); off < o.size; off += requestSize {
					if err := file.Append(min(requestSize, o.size-off), nil); err != nil {
						return err
					}
				}
				if err := file.Close(); err != nil {
					return err
				}
				return vol.Rename(tmp, key)
			}
		case opRead, opReadRange:
			f = func() error {
				file, err := vol.Open(key)
				if err != nil {
					return err
				}
				if o.kind == opRead {
					file.ReadAll()
					return nil
				}
				_, err = file.ReadAt(o.off, o.n)
				return err
			}
		case opDelete:
			return vol.Delete(key)
		default:
			vol.Lookup(key)
			return nil
		}
		if !timed {
			return f()
		}
		return t.time(o.kind.isWrite(), f)
	})
	if err != nil {
		return err
	}
	after := vol.Stats()
	m["fs.write_ns_per_op"], m["fs.read_ns_per_op"] = t.perOp(1), t.perOp(0)
	if t.n[1] > 0 {
		m["fs.meta_writes_per_commit"] = float64(after.MetaWrites-before.MetaWrites) / float64(t.n[1])
		m["fs.log_flushes_per_commit"] = float64(after.LogFlushes-before.LogFlushes) / float64(t.n[1])
	}
	return nil
}

// rungDB drives db.Database the way core.DBStore does.
func rungDB(s rungSeq, m map[string]float64) error {
	clock := vclock.New()
	d := db.Open(disk.New(disk.DefaultGeometry(s.capacity), clock, disk.MetadataMode),
		disk.New(disk.DefaultGeometry(2<<30), clock, disk.MetadataMode), db.Config{})
	var t opTimer
	var before db.Stats
	started := false
	err := s.replay(func(o genOp, timed bool) error {
		if timed && !started {
			started, before = true, d.Stats()
			d.ResetPoolStats()
		}
		key := s.keys[o.key]
		var f func() error
		switch o.kind {
		case opCreate:
			f = func() error { return d.Put(key, o.size, nil) }
		case opReplace:
			f = func() error { return d.Replace(key, o.size, nil) }
		case opRead:
			f = func() error { _, err := d.Get(key); return err }
		case opReadRange:
			f = func() error { _, err := d.GetRange(key, o.off, o.n); return err }
		case opDelete:
			return d.Delete(key)
		default:
			_, err := d.Stat(key)
			return err
		}
		if !timed {
			return f()
		}
		return t.time(o.kind.isWrite(), f)
	})
	if err != nil {
		return err
	}
	after := d.Stats()
	m["db.write_ns_per_op"], m["db.read_ns_per_op"] = t.perOp(1), t.perOp(0)
	if t.n[1] > 0 {
		m["db.log_forces_per_commit"] = float64(after.LogForces-before.LogForces) / float64(t.n[1])
	}
	m["db.pool_hit_rate"] = after.PoolHitRate
	return nil
}

// perWrite replays only what allocators see: every write allocates its
// new version request by request and then frees the version it replaces
// (safe-write order); deletes free. alloc returns the new version's
// handle, free releases one.
//
// It returns the time the timed writes took, their 64 KB request count,
// and how far *calls (the rung's own call counter) advanced during them.
func perWrite[H any](s rungSeq, calls *int64, allocate func(size int64) (H, error), free func(H)) (ns, requests, timedCalls int64, err error) {
	held := make(map[int32]H)
	err = s.replay(func(o genOp, timed bool) error {
		switch o.kind {
		case opCreate, opReplace:
			c0, t0 := *calls, time.Now()
			h, err := allocate(o.size)
			if err != nil {
				return err
			}
			if old, ok := held[o.key]; ok {
				free(old)
			}
			if timed {
				ns += int64(time.Since(t0))
				requests += (o.size + requestSize - 1) / requestSize
				timedCalls += *calls - c0
			}
			held[o.key] = h
		case opDelete:
			free(held[o.key])
			delete(held, o.key)
		}
		return nil
	})
	return
}

// rungAlloc drives the filesystem's run-cache allocator directly.
func rungAlloc(s rungSeq, m map[string]float64) error {
	rc := alloc.NewRunCache(s.capacity/clusterSize, 0)
	var frees int64
	ns, requests, _, err := perWrite(s, &frees,
		func(size int64) ([]extent.Run, error) {
			var runs []extent.Run
			tail := int64(-1)
			for off := int64(0); off < size; off += requestSize {
				got, err := rc.AllocAppend((min(requestSize, size-off)+clusterSize-1)/clusterSize, tail)
				if err != nil {
					return nil, err
				}
				runs = append(runs, got...)
				tail = runs[len(runs)-1].End() - 1
			}
			return runs, nil
		},
		func(runs []extent.Run) {
			for _, r := range runs {
				rc.Free(r)
			}
			// The volume commits its log, releasing quarantined space,
			// every 16 metadata operations.
			if frees++; frees%16 == 0 {
				rc.CommitLog()
			}
		})
	if err != nil {
		return err
	}
	if requests > 0 {
		m["alloc.ns_per_request"] = float64(ns) / float64(requests)
	}
	return nil
}

// rungExtent drives the free-extent index: first-fit takes per request,
// coalescing frees.
func rungExtent(s rungSeq, m map[string]float64) error {
	idx := extent.NewFreeIndex()
	idx.Free(extent.Run{Start: 0, Len: s.capacity / clusterSize})
	var calls int64
	ns, _, timedCalls, err := perWrite(s, &calls,
		func(size int64) ([]extent.Run, error) {
			var runs []extent.Run
			for need := (size + clusterSize - 1) / clusterSize; need > 0; {
				calls++
				r, ok := idx.TakeFirstFit(min(need, requestSize/clusterSize))
				if !ok {
					calls++
					if r, ok = idx.TakeUpTo(need); !ok {
						return nil, fmt.Errorf("extent index out of space")
					}
				}
				runs = append(runs, r)
				need -= r.Len
			}
			return runs, nil
		},
		func(runs []extent.Run) {
			for _, r := range runs {
				calls++
				idx.Free(r)
			}
		})
	if err != nil {
		return err
	}
	if timedCalls > 0 {
		m["extent.ns_per_op"] = float64(ns) / float64(timedCalls)
	}
	return nil
}

// rungGAM drives the database's page allocator: 64 KB requests of 8 KB
// pages, whole-version frees.
func rungGAM(s rungSeq, m map[string]float64) error {
	a := db.NewAllocator(s.capacity / (db.PageSize * db.PagesPerExtent))
	var unused int64
	ns, requests, _, err := perWrite(s, &unused,
		func(size int64) ([]db.PageRun, error) {
			var runs []db.PageRun
			for off := int64(0); off < size; off += requestSize {
				got, ok := a.AllocRequest((min(requestSize, size-off) + db.PageSize - 1) / db.PageSize)
				if !ok {
					return nil, fmt.Errorf("page allocator out of space")
				}
				runs = append(runs, got...) // got is the allocator's scratch
			}
			return runs, nil
		},
		func(runs []db.PageRun) { a.FreeRuns(runs) })
	if err != nil {
		return err
	}
	if requests > 0 {
		m["db.gam.ns_per_request"] = float64(ns) / float64(requests)
	}
	return nil
}

// rungBtree drives the B-tree map the engines index with: a set per
// write, a get per read, a delete per delete.
func rungBtree(s rungSeq, m map[string]float64) error {
	tree := btree.New[int64, int64](func(a, b int64) bool { return a < b })
	var ns, n int64
	err := s.replay(func(o genOp, timed bool) error {
		// Spread keys so neighbours in the op list are not neighbours in
		// the tree.
		k := int64(uint64(o.key+1) * 0x9E3779B97F4A7C15 >> 20)
		t0 := time.Now()
		switch o.kind {
		case opCreate, opReplace:
			tree.Put(k, o.size)
		case opDelete:
			tree.Delete(k)
		default:
			tree.Get(k)
		}
		if timed {
			ns += int64(time.Since(t0))
			n++
		}
		return nil
	})
	if n > 0 {
		m["btree.ns_per_op"] = float64(ns) / float64(n)
	}
	return err
}

// rungDisk drives the simulated drive directly: request-sized runs in
// metadata mode (timing and owner map only), whole-object runs with
// payload bytes in data mode.
func rungDisk(s rungSeq, m map[string]float64) {
	geo := disk.DefaultGeometry(s.capacity)
	meta := disk.New(geo, vclock.New(), disk.MetadataMode)
	const reqClusters = requestSize / clusterSize
	var ns, n int64
	pos := int64(0)
	for _, o := range s.timed {
		// A stride that scatters requests over the whole drive.
		pos = (pos + 7919*reqClusters) % (geo.Clusters - reqClusters)
		r := extent.Run{Start: pos, Len: reqClusters}
		t0 := time.Now()
		if o.kind.isWrite() {
			meta.WriteRun(r, uint32(o.key)+1, 0, nil)
		} else {
			meta.ReadRun(r)
		}
		ns += int64(time.Since(t0))
		n++
	}
	if n > 0 {
		m["disk.meta.ns_per_request"] = float64(ns) / float64(n)
	}

	// Data mode keeps every written cluster, so the rung works in a
	// 64 MB window and moves at most 256 MB.
	const window, budget = 64 << 20, 256 << 20
	data := disk.New(disk.DefaultGeometry(window), vclock.New(), disk.DataMode)
	var writeNs, readNs, written, read int64
	buf := make([]byte, 0)
	pos = 0
	for _, o := range s.timed {
		if !o.kind.isWrite() || written+o.size > budget || o.size > window/2 {
			continue
		}
		if int64(len(buf)) < o.size {
			buf = make([]byte, o.size)
		}
		fillPayload(buf[:o.size], s.keys[o.key], o.ver)
		clusters := o.size / clusterSize
		if pos+clusters > window/clusterSize {
			pos = 0
		}
		r := extent.Run{Start: pos, Len: clusters}
		pos += clusters
		t0 := time.Now()
		data.WriteRun(r, uint32(o.key)+1, 0, buf[:o.size])
		t1 := time.Now()
		data.ReadRun(r)
		readNs += int64(time.Since(t1))
		writeNs += int64(t1.Sub(t0))
		written += o.size
		read += o.size
	}
	if written > 0 {
		m["disk.data.write_ns_per_mb"] = float64(writeNs) / (float64(written) / (1 << 20))
		m["disk.data.read_ns_per_mb"] = float64(readNs) / (float64(read) / (1 << 20))
	}
}

// runLadder runs every rung below core into m.
func runLadder(s rungSeq, m map[string]float64) error {
	for _, rung := range []func(rungSeq, map[string]float64) error{rungFS, rungDB, rungAlloc, rungExtent, rungGAM, rungBtree} {
		if err := rung(s, m); err != nil {
			return err
		}
	}
	rungDisk(s, m)
	return nil
}

package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/blob"
)

// perLayer names every per-layer metric, the layer that produces it, and
// which way is better. BENCHMARK.json repeats the list; a unit test keeps
// the two in step. A layer that is not in a workload's stack reports 0.
var perLayer = []metricInfo{
	{"workload.self_ns_per_op", "ns", "wall", "lower"},
	{"workload.allocs_per_op", "count", "none", "lower"},
	{"core.read.span_us", "us", "wall", "lower"},
	{"core.write.span_us", "us", "wall", "lower"},
	{"core.calls", "count", "none", "lower"},
	{"core.errors", "count", "none", "lower"},
	{"core.self_ns_per_op", "ns", "wall", "lower"},
	{"fs.write_ns_per_op", "ns", "wall", "lower"},
	{"fs.read_ns_per_op", "ns", "wall", "lower"},
	{"fs.meta_writes_per_commit", "count", "none", "lower"},
	{"fs.log_flushes_per_commit", "count", "none", "lower"},
	{"db.write_ns_per_op", "ns", "wall", "lower"},
	{"db.read_ns_per_op", "ns", "wall", "lower"},
	{"db.log_forces_per_commit", "count", "none", "lower"},
	{"db.pool_hit_rate", "fraction", "none", "higher"},
	{"db.gam.ns_per_request", "ns", "wall", "lower"},
	{"btree.ns_per_op", "ns", "wall", "lower"},
	{"alloc.ns_per_request", "ns", "wall", "lower"},
	{"extent.ns_per_op", "ns", "wall", "lower"},
	{"disk.meta.ns_per_request", "ns", "wall", "lower"},
	{"disk.requests_per_op", "count", "none", "lower"},
	{"disk.seeks_per_op", "count", "none", "lower"},
	{"disk.write_amp", "ratio", "none", "lower"},
	{"disk.data.write_ns_per_mb", "ns", "wall", "lower"},
	{"disk.data.read_ns_per_mb", "ns", "wall", "lower"},
	{"cache.read.self_us", "us", "wall", "lower"},
	{"cache.write.self_us", "us", "wall", "lower"},
	{"cache.hit_rate", "fraction", "none", "higher"},
	{"cache.evictions_per_kop", "count", "none", "lower"},
	{"cache.resident_mb", "MB", "none", "lower"},
	{"shard.read.self_us", "us", "wall", "lower"},
	{"shard.write.self_us", "us", "wall", "lower"},
	{"shard.imbalance_cv", "ratio", "none", "lower"},
	{"blob.commit.mean_batch", "count", "none", "higher"},
	{"blob.commit.forces_per_commit", "ratio", "none", "lower"},
	{"server.read.self_us", "us", "wall", "lower"},
	{"server.write.self_us", "us", "wall", "lower"},
	{"server.calls", "count", "none", "lower"},
	{"server.errors", "count", "none", "lower"},
	{"server.shed", "count", "none", "lower"},
	{"client.read.self_us", "us", "wall", "lower"},
	{"client.write.self_us", "us", "wall", "lower"},
	{"net_http.get_us", "us", "wall", "lower"},
	{"net_http.put_us", "us", "wall", "lower"},
	{"client.oneshot_read_us", "us", "wall", "lower"},
	{"client.session_read_us", "us", "wall", "lower"},
	{"client.oneshot_write_us", "us", "wall", "lower"},
	{"client.session_write_us", "us", "wall", "lower"},
	{"obs.nil_overhead_ns_per_op", "ns", "wall", "lower"},
	{"obs.enabled_overhead_ns_per_op", "ns", "wall", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "wall", "lower"},
	{"runtime.heap_peak_mb", "MB", "none", "lower"},
	{"trace.overhead_pct", "%", "wall", "lower"},
}

// traceDivisor: the traced mode runs a quarter of the timed op count.
const traceDivisor = 4

func quarter(w *workloadDef) *workloadDef {
	q := *w
	if w.sim != nil {
		p := *w.sim
		p.writesPerCycle /= traceDivisor
		p.readsPerCycle /= traceDivisor
		q.sim = &p
	} else {
		p := *w.served
		p.itersPerSegment /= traceDivisor
		q.served = &p
	}
	return &q
}

// tracedRound is what one in-process round of the traced mode measured.
type tracedRound struct {
	timedS    float64
	ops       int64
	userBytes int64 // bytes the timed ops wrote
	mallocs   uint64
	stack     stackCounters // over the timed phase
	shims     []*spanStore
	mw        *middleware
}

// shimWrap returns a wrapFunc that interposes span shims and remembers
// them.
func shimWrap(tr *tracer, shims *[]*spanStore) wrapFunc {
	return func(layer string, _ int, s blob.Store) blob.Store {
		sh := &spanStore{Store: s, layer: layer, tr: tr}
		*shims = append(*shims, sh)
		return sh
	}
}

// timedHook snapshots allocation and layer counters around the timed
// phase.
func (r *tracedRound) timedHook() func(st *builtStack, begin bool) {
	var ms runtime.MemStats
	var mallocs uint64
	var base stackCounters
	return func(st *builtStack, begin bool) {
		runtime.ReadMemStats(&ms)
		if begin {
			mallocs, base = ms.Mallocs, st.counters()
			return
		}
		r.mallocs += ms.Mallocs - mallocs
		r.stack = r.stack.plus(st.counters().since(base))
	}
}

// simTracedRound runs one sim round in-process, with shims when tr is
// set.
func simTracedRound(w *workloadDef, lists []*opList, res *result, tr *tracer) (tracedRound, error) {
	var r tracedRound
	var wrap wrapFunc
	if tr != nil {
		wrap = shimWrap(tr, &r.shims)
	}
	sr, err := simOneRound(w, lists, res, wrap, tr, r.timedHook(), nil)
	r.timedS, r.ops, r.userBytes = sr.timedS, sr.ops, timedBytesWritten(lists)
	return r, err
}

// timedBytesWritten is what the timed ops of lists write, by the model.
func timedBytesWritten(lists []*opList) (n int64) {
	for _, l := range lists {
		for _, seg := range l.segments {
			_, written := expectBytes(seg)
			n += written
		}
	}
	return
}

// servedTracedRound assembles the served stack in-process — the store
// stack behind server.New behind net/http on a loopback listener — and
// drives it with the same client loop the untraced mode uses.
func servedTracedRound(ctx context.Context, w *workloadDef, lists []*opList, res *result, tr *tracer) (tracedRound, error) {
	var r tracedRound
	var wrap wrapFunc
	if tr != nil {
		wrap = shimWrap(tr, &r.shims)
	}
	start := time.Now()
	st, err := w.stack.build(wrap)
	if err != nil {
		return r, err
	}
	defer st.close()
	url, mw, stop, err := serveInProcess(st.top, tr)
	if err != nil {
		return r, err
	}
	defer stop()
	r.mw = mw
	hook := r.timedHook()
	sr, err := servedLoad{url: url, lists: lists, p: w.served, start: start, cpu: selfCPU, tr: tr,
		timed: func(begin bool) { hook(st, begin) }}.run(ctx, res)
	r.timedS, r.ops, r.userBytes = sr.timedS, sr.ops, timedBytesWritten(lists)
	return r, err
}

// serveInProcess mounts the server over store on a loopback listener,
// behind the tracing middleware when tr is set.
func serveInProcess(store blob.Store, tr *tracer) (url string, mw *middleware, stop func(), err error) {
	srv, err := newServer(store)
	if err != nil {
		return "", nil, nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		mw = &middleware{next: srv, tr: tr}
		h = mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		srv.Close()
	}
	return "http://" + ln.Addr().String(), mw, stop, nil
}

// runTraced is the traced mode: pairs of in-process rounds, shims off
// then on, at a quarter of the op count, for the requested seconds; then
// the rungs for what shims cannot reach.
func runTraced(w *workloadDef, seed int64, seconds float64, res *result) error {
	q := quarter(w)
	ctx := context.Background()
	var lists []*opList
	root := "client"
	if q.sim != nil {
		lists, root = genSim(seed, *q.sim), "workload"
		res.Clients, res.Loop = 1, "closed, one executor stream (k=1)"
	} else {
		lists = genServed(seed, *q.served, clientCount())
		res.Clients = len(lists)
		res.Loop = fmt.Sprintf("closed, %d clients, in-process server on loopback", len(lists))
	}
	res.OpDigest = digest(lists...)
	res.OpCounts = map[string]int{}
	for _, l := range lists {
		res.OpCounts["setup_ops"] += len(l.setup)
		res.OpCounts["timed_ops"] += l.timedOps()
	}
	round := func(tr *tracer) (tracedRound, error) {
		runtime.GC()
		if q.sim != nil {
			return simTracedRound(q, lists, res, tr)
		}
		return servedTracedRound(ctx, q, lists, res, tr)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lt := newLayerTotals()
	var off, on, last tracedRound
	var lastTr *tracer
	shardCalls := map[int]int64{}
	var coreCalls, coreErrors, srvCalls, srvErrors, srvShed int64
	// The rounds take three quarters of the requested time, the rungs that
	// follow them (up to 8 s on the 8 GB volumes) the rest.
	for start := time.Now(); res.Rounds == 0 || time.Since(start).Seconds() < 0.75*seconds; {
		r, err := round(nil)
		if err != nil {
			return err
		}
		off.timedS, off.ops, off.mallocs = off.timedS+r.timedS, off.ops+r.ops, off.mallocs+r.mallocs
		tr := newTracer(root, res.Clients)
		r, err = round(tr)
		if err != nil {
			return err
		}
		on.timedS, on.ops = on.timedS+r.timedS, on.ops+r.ops
		lt.add(tr.done)
		core := 0
		for _, sh := range r.shims {
			if sh.layer == "core" {
				coreCalls += sh.calls.Load()
				coreErrors += sh.errors.Load()
				shardCalls[core] += sh.calls.Load()
				core++
			}
		}
		if r.mw != nil {
			srvCalls += r.mw.calls.Load()
			srvErrors += r.mw.errors.Load()
			srvShed += r.mw.shed.Load()
		}
		last, lastTr = r, tr
		res.Rounds++
	}
	runtime.ReadMemStats(&ms1)
	res.TimedS = off.timedS + on.timedS

	m := map[string]float64{}
	perOff, perOn := off.timedS/float64(off.ops), on.timedS/float64(on.ops)
	m["trace.overhead_pct"] = 100 * (perOn - perOff) / perOff
	m["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)
	m["workload.allocs_per_op"] = float64(off.mallocs) / float64(off.ops)

	timedOps := float64(lt.ops[0] + lt.ops[1])
	if root == "workload" {
		s := lt.selfNs["workload"]
		m["workload.self_ns_per_op"] = float64(s[0]+s[1]) / timedOps
	}
	for _, layer := range []string{"cache", "shard", "server", "client"} {
		m[layer+".read.self_us"], m[layer+".write.self_us"] = lt.selfUs(layer, 0), lt.selfUs(layer, 1)
	}
	m["core.read.span_us"], m["core.write.span_us"] = lt.spanUs("core", 0), lt.spanUs("core", 1)
	m["core.calls"], m["core.errors"] = float64(coreCalls), float64(coreErrors)
	m["server.calls"], m["server.errors"], m["server.shed"] = float64(srvCalls), float64(srvErrors), float64(srvShed)
	if len(shardCalls) > 1 {
		xs := make([]float64, 0, len(shardCalls))
		for _, n := range shardCalls {
			xs = append(xs, float64(n))
		}
		mu := mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mu) * (x - mu)
		}
		m["shard.imbalance_cv"] = math.Sqrt(ss/float64(len(xs))) / mu
	}

	// Counters the layers keep themselves, over the last traced round's
	// timed phase.
	c, ops := last.stack, float64(last.ops)
	m["disk.requests_per_op"] = float64(c.driveRequests) / ops
	m["disk.seeks_per_op"] = float64(c.driveSeeks) / ops
	m["disk.write_amp"] = float64(c.driveBytesWritten) / float64(last.userBytes)
	if c.commits > 0 {
		m["blob.commit.mean_batch"] = float64(c.commits) / float64(c.forces)
		m["blob.commit.forces_per_commit"] = float64(c.forces) / float64(c.commits)
	}
	if reads := c.cacheHits + c.cacheMisses; reads > 0 {
		m["cache.hit_rate"] = float64(c.cacheHits) / float64(reads)
		m["cache.evictions_per_kop"] = 1000 * float64(c.cacheEvictions) / ops
		m["cache.resident_mb"] = float64(c.cacheResidentBytes) / (1 << 20)
	}

	// The spans go to disk and out of the heap before the rungs run, so
	// the rungs are not timed against a collector busy with span data.
	if err := writeChromeTrace(fmt.Sprintf("%s/trace-%s.json", outDir, w.name), lastTr.done); err != nil {
		return err
	}
	if err := writeSpans(fmt.Sprintf("%s/spans-%s.jsonl", outDir, w.name), lastTr.done); err != nil {
		return err
	}
	lastTr = nil
	runtime.GC()

	// Rungs for the layers no shim reaches, on this workload's own op
	// sequence (the first client's, at the full op count).
	var full *opList
	if w.sim != nil {
		full = genSim(seed, *w.sim)[0]
	} else {
		full = genServed(seed, *w.served, len(lists))[0]
	}
	// One volume as large as the whole stack: the list is every shard's load.
	seq := newRungSeq(full, w.stack.capacity*int64(w.stack.shards))
	if err := runLadder(seq, m); err != nil {
		return err
	}
	engine := "fs"
	if w.stack.backend == "db" {
		engine = "db"
	}
	coreNs := 1e3 * (lt.spanUs("core", 0)*float64(lt.ops[0]) + lt.spanUs("core", 1)*float64(lt.ops[1])) / timedOps
	engineNs := (m[engine+".read_ns_per_op"]*float64(lt.ops[0]) + m[engine+".write_ns_per_op"]*float64(lt.ops[1])) / timedOps
	m["core.self_ns_per_op"] = coreNs - engineNs
	if err := rungObs(w, seq, m); err != nil {
		return err
	}
	if err := rungWire(ctx, m); err != nil {
		return err
	}

	// Self times must add up to the root spans, or the attribution lies.
	res.Attempted++
	if ratio := float64(lt.selfSum) / float64(lt.rootNs); math.Abs(ratio-1) > 0.02 {
		res.problem("DATA_MISMATCH", "per-op self times sum to %.4f of the root spans", ratio)
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit, TimeUnit: d.timeUnit}
	}
	return nil
}

// rungObs replays the rung sequence through the executor over a bare
// core store, over obs.Wrap with recording off, and with it on; the
// differences are the observability layer's cost per op.
func rungObs(w *workloadDef, s rungSeq, m map[string]float64) error {
	spec := stackSpec{backend: w.stack.backend, capacity: s.capacity, shards: 1}
	l := &opList{keys: s.keys}
	variant := func(wrap func(blob.Store) blob.Store) (float64, error) {
		st, err := spec.build(nil)
		if err != nil {
			return 0, err
		}
		defer st.close()
		ex := newExecutor(wrap(st.top))
		if _, err := runOps(ex, l, s.setup, nil, nil); err != nil {
			return 0, err
		}
		seg, err := runOps(ex, l, s.timed, nil, nil)
		return seg.wallS * 1e9 / float64(len(s.timed)), err
	}
	wraps := []func(blob.Store) blob.Store{
		func(st blob.Store) blob.Store { return st },
		func(st blob.Store) blob.Store { return obsWrap(st, false) },
		func(st blob.Store) blob.Store { return obsWrap(st, true) },
	}
	var ns [3][]float64
	for rep := 0; rep < 3; rep++ {
		for i, wrap := range wraps {
			runtime.GC()
			v, err := variant(wrap)
			if err != nil {
				return fmt.Errorf("obs rung: %w", err)
			}
			ns[i] = append(ns[i], v)
		}
	}
	bare := median(ns[0])
	m["obs.nil_overhead_ns_per_op"] = median(ns[1]) - bare
	m["obs.enabled_overhead_ns_per_op"] = median(ns[2]) - bare
	return nil
}

// rungWire measures the wire paths on the served_small_meta stack,
// in-process: the same whole-object read and safe replace through the
// client's one-shot calls, through its session handles, and through the
// bench's own raw net/http requests (the floor under client.Store).
func rungWire(ctx context.Context, m map[string]float64) error {
	const objects, reps, size = 256, 400, 64 << 10
	st, err := findWorkload("served_small_meta").stack.build(nil)
	if err != nil {
		return err
	}
	defer st.close()
	url, _, stop, err := serveInProcess(st.top, nil)
	if err != nil {
		return err
	}
	defer stop()
	cl, err := dial(url)
	if err != nil {
		return err
	}
	defer cl.Close()
	key := func(i int) string { return "w/" + strconv.Itoa(i%objects) }
	for i := 0; i < objects; i++ {
		if err := cl.Upload(ctx, key(i), size, nil, false); err != nil {
			return err
		}
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	raw := func(method string, i int) error {
		req, err := http.NewRequestWithContext(ctx, method, url+blobPath+key(i), nil)
		if err != nil {
			return err
		}
		if method == http.MethodPut {
			req.Header.Set(headerMetaBytes, strconv.Itoa(size))
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: http %d", method, key(i), resp.StatusCode)
		}
		return nil
	}
	paths := []struct {
		name string
		do   func(i int) error
	}{
		{"client.oneshot_read_us", func(i int) error { _, _, err := cl.Fetch(ctx, key(i)); return err }},
		{"client.session_read_us", func(i int) error {
			r, err := cl.Open(ctx, key(i))
			if err != nil {
				return err
			}
			if _, err := r.ReadAll(); err != nil {
				r.Close()
				return err
			}
			return r.Close()
		}},
		{"net_http.get_us", func(i int) error { return raw(http.MethodGet, i) }},
		{"client.oneshot_write_us", func(i int) error { return cl.Upload(ctx, key(i), size, nil, true) }},
		{"client.session_write_us", func(i int) error {
			w, err := cl.Replace(ctx, key(i), size)
			if err != nil {
				return err
			}
			return blob.WriteAll(w, size, nil)
		}},
		{"net_http.put_us", func(i int) error { return raw(http.MethodPut, i) }},
	}
	for _, p := range paths {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := p.do(i); err != nil {
				return fmt.Errorf("wire rung %s: %w", p.name, err)
			}
		}
		m[p.name] = float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/client"
)

// generatorHeapLimit is the Go heap the load generator may grow to before
// it collects.
const generatorHeapLimit = 256 << 20

// servedClient is one closed-loop client: one goroutine, one connection,
// one disjoint key partition, one op in flight.
type servedClient struct {
	id      int
	st      *client.Store
	list    *opList
	payload bool
	buf     []byte // upload scratch, as large as the largest object
	tr      *tracer

	lat      latencies
	failures []string
	failed   int64
}

func (c *servedClient) fail(tag string, o genOp, format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("%s: %s %s: %s", tag, o.kind, c.list.keys[o.key], fmt.Sprintf(format, args...)))
	}
}

// do performs one generated op and checks what came back against the
// generator's model: sizes always, payload bytes when the workload
// sends them.
func (c *servedClient) do(ctx context.Context, o genOp) {
	key := c.list.keys[o.key]
	var err error
	switch o.kind {
	case opCreate, opReplace:
		var data []byte
		if c.payload {
			data = c.buf[:o.size]
			fillPayload(data, key, o.ver)
		}
		err = c.st.Upload(ctx, key, o.size, data, o.kind == opReplace)
	case opRead:
		var size int64
		var data []byte
		size, data, err = c.st.Fetch(ctx, key)
		if err == nil && size != o.size {
			c.fail("DATA_MISMATCH", o, "size %d, model says %d", size, o.size)
		} else if err == nil && c.payload && (int64(len(data)) != o.size || !checkPayload(data, key, o.ver, 0)) {
			c.fail("DATA_MISMATCH", o, "%d payload bytes do not match version %d", len(data), o.ver)
		}
	case opReadRange:
		var data []byte
		data, err = c.st.FetchAt(ctx, key, o.off, o.n)
		if err == nil && c.payload && (int64(len(data)) != o.n || !checkPayload(data, key, o.ver, o.off)) {
			c.fail("DATA_MISMATCH", o, "range [%d,+%d) does not match version %d", o.off, o.n, o.ver)
		}
	case opDelete:
		err = c.st.Delete(ctx, key)
	case opStat:
		info, serr := c.st.Stat(ctx, key)
		if err = serr; err == nil && info.Size != o.size {
			c.fail("DATA_MISMATCH", o, "stat size %d, model says %d", info.Size, o.size)
		}
	}
	if err != nil {
		c.fail("OP_FAILED", o, "%v", err)
	}
}

// run performs ops back to back; with timed set every op's wall latency
// is recorded (and its root span, when tracing).
func (c *servedClient) run(ctx context.Context, ops []genOp, timed bool) {
	for _, o := range ops {
		if !timed {
			c.do(ctx, o)
			continue
		}
		if c.tr != nil {
			c.tr.beginOp(c.id, o.kind)
		}
		t0 := time.Now()
		c.do(ctx, o)
		d := time.Since(t0)
		if c.tr != nil {
			c.tr.endOp(c.id)
		}
		c.lat.add(o.kind, d.Nanoseconds())
	}
}

// each runs f once per client, all at the same time, and waits.
func each(clients []*servedClient, f func(*servedClient)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// dialClients opens one connection per op list.
func dialClients(url string, lists []*opList, p *servedParams, tr *tracer) ([]*servedClient, error) {
	clients := make([]*servedClient, len(lists))
	for i, l := range lists {
		st, err := dial(url)
		if err != nil {
			return nil, err
		}
		c := &servedClient{id: i, st: st, list: l, payload: p.payload, tr: tr}
		if p.payload {
			c.buf = make([]byte, p.sizeHi+sizeQuantum)
		}
		clients[i] = c
	}
	return clients, nil
}

// servedLoad is the part of a round that needs only a URL: prepopulate,
// warm up, the timed closed loop, then the end-of-round checks and the
// virtual-time sweeps. The untraced mode points it at a fragserve child,
// the traced mode at an in-process server.
type servedLoad struct {
	url   string
	lists []*opList
	p     *servedParams
	start time.Time        // when the round's setup began (before the server started)
	cpu   func() float64   // CPU seconds of the process hosting the stack
	tr    *tracer          // nil when not tracing
	timed func(begin bool) // optional: called as the timed phase begins and ends
	speed func() float64   // optional: the yardstick, read before and after every segment
}

func (ld servedLoad) run(ctx context.Context, res *result) (r roundResult, err error) {
	p, lists, cpu, timed := ld.p, ld.lists, ld.cpu, ld.timed
	if timed == nil {
		timed = func(bool) {}
	}
	clients, err := dialClients(ld.url, lists, p, ld.tr)
	if err != nil {
		return r, err
	}
	defer func() {
		for _, c := range clients {
			c.st.Close()
		}
	}()
	collect := func(phase string) error {
		var failed int64
		for _, c := range clients {
			failed += c.failed
			res.Failed += c.failed
			for _, f := range c.failures {
				res.Problems = append(res.Problems, fmt.Sprintf("%s (client %d, %s)", f, c.id, phase))
			}
			c.failed, c.failures = 0, nil
		}
		if failed > 0 {
			return fmt.Errorf("%d ops failed in %s", failed, phase)
		}
		return nil
	}

	each(clients, func(c *servedClient) { c.run(ctx, c.list.setup, false) })
	each(clients, func(c *servedClient) { c.run(ctx, c.list.warm, false) })
	if err := collect("setup"); err != nil {
		return r, err
	}
	r.setupS = time.Since(ld.start).Seconds()

	read := func() {
		if ld.speed != nil {
			r.speeds = append(r.speeds, ld.speed())
		}
	}
	timed(true)
	cpu0 := cpu()
	read()
	for k := range lists[0].segments {
		// The clients start every segment together, so a segment's rate is
		// its ops over its wall time.
		ops, t0 := 0, time.Now()
		each(clients, func(c *servedClient) { c.run(ctx, c.list.segments[k], true) })
		d := time.Since(t0).Seconds()
		for _, c := range clients {
			ops += len(c.list.segments[k])
		}
		r.segRates = append(r.segRates, float64(ops)/d)
		r.timedS += d
		read()
	}
	r.cpuS = cpu() - cpu0
	timed(false)
	var lat latencies
	for _, c := range clients {
		n := int64(c.list.timedOps())
		r.ops += n
		res.Attempted += n
		lat.read = append(lat.read, c.lat.read...)
		lat.write = append(lat.write, c.lat.write...)
	}
	r.read, r.write = lat.summarize()
	if err := collect("timed phase"); err != nil {
		return r, err
	}

	// End state: the server's own accounting against the model, then the
	// layout for the paper's headline.
	view := clients[0].st
	checkEndState(res, view, lists...)
	r.frags = meanFragments(view)

	// Virtual-time sweeps. Reads and writes run in separate phases, so
	// the disks' clock between two stats calls covers one kind only.
	// The read sweep doubles as the end-state content check.
	clock := func() float64 { view.LiveBytes(); return view.Clock().Seconds() }
	var sweepRead, sweepWritten int64
	reads, writes := make([][]genOp, len(clients)), make([][]genOp, len(clients))
	for i, c := range clients {
		reads[i], writes[i] = c.list.sweepOps(p.sweepWrites / len(clients))
		nr, _ := expectBytes(reads[i])
		_, nw := expectBytes(writes[i])
		sweepRead, sweepWritten = sweepRead+nr, sweepWritten+nw
		res.Attempted += int64(len(reads[i]) + len(writes[i]))
	}
	c0 := clock()
	each(clients, func(c *servedClient) { c.run(ctx, reads[c.id], false) })
	c1 := clock()
	each(clients, func(c *servedClient) { c.run(ctx, writes[c.id], false) })
	c2 := clock()
	r.readMBps = float64(sweepRead) / (1 << 20) / (c1 - c0)
	r.writeMBps = float64(sweepWritten) / (1 << 20) / (c2 - c1)
	return r, collect("end-of-round sweeps")
}

// servedOneRound runs one round against a fresh fragserve child.
func servedOneRound(ctx context.Context, bin string, w *workloadDef, lists []*opList, res *result, speed func() float64) (roundResult, error) {
	start := time.Now()
	srv, err := startServer(bin, w.stack, outDir+"/fragserve-"+w.name+".stderr.log")
	if err != nil {
		return roundResult{}, err
	}
	cpu := func() float64 { s, _, _ := srv.usage(); return s }
	r, err := servedLoad{url: srv.url, lists: lists, p: w.served, start: start, cpu: cpu, speed: speed}.run(ctx, res)
	if err != nil {
		srv.kill()
		return r, err
	}
	// Peak RSS is read while the server still runs, then it must shut
	// down cleanly.
	if _, r.rssMB, err = srv.usage(); err != nil {
		srv.kill()
		return r, err
	}
	return r, srv.stop()
}

// runServed measures a served_* workload: rounds against fresh servers
// for the requested seconds.
func runServed(w *workloadDef, seed int64, seconds float64, res *result) error {
	n := clientCount()
	lists := genServed(seed, *w.served, n)
	res.OpDigest = digest(lists...)
	res.OpCounts = map[string]int{"objects": w.served.objects, "warm_reads": w.served.warmReads, "segments": w.served.segments}
	for _, l := range lists {
		res.OpCounts["setup_ops"] += len(l.setup)
		res.OpCounts["timed_ops"] += l.timedOps()
	}
	res.Clients = n
	res.Loop = fmt.Sprintf("closed, %d client(s) = min(usable CPUs, 4), one connection and one op in flight each", n)

	bin, err := buildServer()
	if err != nil {
		return err
	}
	// Here the bench is only the load generator, and it shares the CPU
	// with the server. Its heap is a few MB of op lists while it turns
	// over hundreds of MB of request and response bodies a second, so at
	// the default GC percent it would collect hundreds of times a second
	// and the run would measure the generator's collector: ops_per_s on
	// served_large_payload was 2.2x lower and several times noisier. A
	// fixed heap budget makes its collections rare and cheap instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(generatorHeapLimit))
	ctx := context.Background()
	yardstick := newRefKernel()
	var rounds []roundResult
	for start := time.Now(); len(rounds) < minRounds || time.Since(start).Seconds() < seconds; {
		r, err := servedOneRound(ctx, bin, w, lists, res, yardstick.read)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	reportRounds(res, rounds)
	return nil
}

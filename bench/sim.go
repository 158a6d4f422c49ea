package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/blob"
	"repro/internal/workload"
)

// replaySource feeds a generated op list to the simulator's executor.
// It is the bench's own workload.Source: the executor never draws a
// random number. When lat is set it times every op from the moment the
// executor takes it (Next) to the moment it reports back (Observe); tr,
// when set, records that interval as the op's root span.
//
// A whole-object read of the simulator takes under half a microsecond, no
// longer than the two clock readings around it, and its p99 is the host's
// timer interrupt. Reads are therefore timed readBatch at a time, from
// the first one's Next to the last one's Observe, and each batch adds one
// sample: its time per read.
type replaySource struct {
	keys []string
	ops  []genOp
	next int
	lat  *latencies
	tr   *tracer

	start   time.Time
	batch   int // reads timed since start
	failed  int
	lastErr error
}

const readBatch = 32

func (s *replaySource) Name() string { return "bench-replay" }

func (s *replaySource) Next(*rand.Rand) (workload.Op, bool) {
	if s.next == len(s.ops) {
		return workload.Op{}, false
	}
	g := s.ops[s.next]
	s.next++
	op := workload.Op{Key: s.keys[g.key], Size: g.size}
	switch g.kind {
	case opCreate:
		op.Kind = workload.OpCreate
	case opReplace:
		op.Kind = workload.OpReplace
	case opRead:
		op.Kind = workload.OpRead
	case opReadRange:
		op.Kind, op.Off, op.Len = workload.OpRead, g.off, g.n
	case opDelete:
		op.Kind = workload.OpDelete
	default:
		// The simulator's executor has no stat op; a stat costs what a
		// one-cluster ranged read's open does.
		op.Kind, op.Len = workload.OpRead, sizeQuantum
	}
	if s.tr != nil {
		s.tr.beginOp(0, g.kind)
	}
	if s.batch == 0 {
		s.start = time.Now()
	}
	return op, true
}

// Observe implements workload.SourceObserver.
func (s *replaySource) Observe(_ workload.Op, err error) {
	g := s.ops[s.next-1]
	if s.tr != nil {
		s.tr.endOp(0)
	}
	if s.lat != nil {
		s.batch++
		lastOfBatch := g.kind != opRead || s.batch == readBatch || s.next == len(s.ops) || s.ops[s.next].kind != opRead
		if lastOfBatch {
			s.lat.add(g.kind, time.Since(s.start).Nanoseconds()/int64(s.batch))
			s.batch = 0
		}
	}
	if err != nil {
		s.failed++
		s.lastErr = fmt.Errorf("%s %s: %w", g.kind, s.keys[g.key], err)
	}
}

// simSegment is what one executor run over one segment produced.
type simSegment struct {
	wallS, virtS float64
	counts       workload.Counts
}

// runOps drives ops through the executor as one k=1 stream.
func runOps(ex *workload.Executor, l *opList, ops []genOp, lat *latencies, tr *tracer) (simSegment, error) {
	src := &replaySource{keys: l.keys, ops: ops, lat: lat, tr: tr}
	t0 := time.Now()
	res, err := ex.Run([]workload.Stream{{Source: src}}, workload.RunOptions{})
	seg := simSegment{wallS: time.Since(t0).Seconds(), virtS: res.Seconds, counts: res.Total()}
	if err == nil && src.failed > 0 {
		err = src.lastErr
	}
	return seg, err
}

// expectBytes sums what the model says a segment moves.
func expectBytes(ops []genOp) (read, written int64) {
	for _, o := range ops {
		switch o.kind {
		case opRead:
			read += o.size
		case opReplace, opCreate:
			written += o.size
		}
	}
	return
}

// simOneRound ages every volume once: build the stack, replay setup and
// the timed cycles, check the store against the generator's model.
//
// wrap and tr are the traced mode's shims and span recorder; timed, when
// set, is called as each volume's timed phase begins and ends. speed, when
// set, reads the yardstick before and after every volume's timed phase.
func simOneRound(w *workloadDef, lists []*opList, res *result, wrap wrapFunc, tr *tracer, timed func(st *builtStack, begin bool), speed func() float64) (roundResult, error) {
	if timed == nil {
		timed = func(*builtStack, bool) {}
	}
	read := func(r *roundResult) {
		if speed != nil {
			r.speeds = append(r.speeds, speed())
		}
	}
	var r roundResult
	var lat latencies
	var virtRead, virtWrite float64
	var bytesRead, bytesWritten int64
	cycles := len(lists[0].segments) / 2
	cycleS, cycleOps := make([]float64, cycles), make([]int, cycles)
	volume := func(l *opList) error {
		t0 := time.Now()
		st, err := w.stack.build(wrap)
		if err != nil {
			return err
		}
		defer st.close()
		ex := newExecutor(st.top)
		if _, err := runOps(ex, l, l.setup, nil, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if age := ex.Tracker().Age(); age < w.sim.startAge {
			res.problem("DATA_MISMATCH", "setup aged the store to %.4f, want >= %v", age, w.sim.startAge)
		}
		r.setupS += time.Since(t0).Seconds()

		timed(st, true)
		read(&r)
		cpu0 := selfCPU()
		for i, ops := range l.segments {
			seg, err := runOps(ex, l, ops, &lat, tr)
			res.Attempted += int64(len(ops))
			if err != nil {
				res.problem("OP_FAILED", "%v", err)
				return err
			}
			wantRead, wantWritten := expectBytes(ops)
			if seg.counts.Ops() != len(ops) || seg.counts.BytesRead != wantRead || seg.counts.BytesWritten != wantWritten {
				res.problem("DATA_MISMATCH", "segment moved %d ops, %d B read, %d B written; model says %d, %d, %d",
					seg.counts.Ops(), seg.counts.BytesRead, seg.counts.BytesWritten, len(ops), wantRead, wantWritten)
			}
			cycleS[i/2] += seg.wallS
			cycleOps[i/2] += len(ops)
			if wantRead > 0 {
				virtRead += seg.virtS
				bytesRead += wantRead
			} else {
				virtWrite += seg.virtS
				bytesWritten += wantWritten
			}
		}
		r.cpuS += selfCPU() - cpu0
		read(&r)
		timed(st, false)
		r.frags += meanFragments(st.top) / float64(len(lists))
		checkEndState(res, st.top, l)
		return nil
	}
	for _, l := range lists {
		// The previous volume's store must not share the heap with this
		// one, or peak RSS would depend on when the collector ran.
		runtime.GC()
		if err := volume(l); err != nil {
			return r, err
		}
	}
	for c := range cycleS {
		r.segRates = append(r.segRates, float64(cycleOps[c])/cycleS[c])
		r.timedS += cycleS[c]
		r.ops += int64(cycleOps[c])
	}
	r.readMBps = float64(bytesRead) / (1 << 20) / virtRead
	r.writeMBps = float64(bytesWritten) / (1 << 20) / virtWrite
	r.read, r.write = lat.summarize()
	return r, nil
}

// checkEndState compares the store's object count and live bytes with
// the generator's model.
func checkEndState(res *result, s blob.Store, lists ...*opList) {
	var objects int
	var bytes int64
	for _, l := range lists {
		objects += l.endObjects
		bytes += l.endBytes
	}
	if got := s.ObjectCount(); got != objects {
		res.problem("DATA_MISMATCH", "store holds %d objects, model says %d", got, objects)
	}
	if got := s.LiveBytes(); got != bytes {
		res.problem("DATA_MISMATCH", "store holds %d live bytes, model says %d", got, bytes)
	}
}

// runSim measures a sim_* workload: identical rounds for the requested
// seconds.
func runSim(w *workloadDef, seed int64, seconds float64, res *result) error {
	lists := genSim(seed, *w.sim)
	res.OpDigest = digest(lists...)
	res.OpCounts = map[string]int{"volumes": len(lists), "cycles": w.sim.cycles}
	for _, l := range lists {
		res.OpCounts["objects"] += len(l.keys)
		res.OpCounts["setup_ops"] += len(l.setup)
		res.OpCounts["timed_ops"] += l.timedOps()
	}
	res.Clients, res.Loop = 1, "closed, one executor stream (k=1)"

	yardstick := newRefKernel()
	var rounds []roundResult
	for start := time.Now(); len(rounds) < minRounds || time.Since(start).Seconds() < seconds; {
		r, err := simOneRound(w, lists, res, nil, nil, nil, yardstick.read)
		if err != nil {
			return err
		}
		if len(rounds) > 0 && (r.frags != rounds[0].frags || r.readMBps != rounds[0].readMBps || r.writeMBps != rounds[0].writeMBps) {
			res.problem("SIM_DRIFT", "round %d: frags/obj %v, virtual MB/s %v read %v write; round 0 had %v, %v, %v",
				len(rounds), r.frags, r.readMBps, r.writeMBps, rounds[0].frags, rounds[0].readMBps, rounds[0].writeMBps)
		}
		rounds = append(rounds, r)
	}
	// The simulator runs in this process, whose peak RSS is one number
	// for the whole run, not one per round.
	peak := selfPeakRSSMB()
	for i := range rounds {
		rounds[i].rssMB = peak
	}
	reportRounds(res, rounds)
	return nil
}

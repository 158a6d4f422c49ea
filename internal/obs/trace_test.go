package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/blob"
	"repro/internal/vclock"
)

// mkOp builds a completed op with the given virtual interval.
func mkOp(stream int, kind string, start, end int64) *OpTrace {
	return &OpTrace{Stream: stream, Kind: kind, Key: fmt.Sprintf("k%d", start), Start: start, End: end}
}

// TestTracerRingAndSlowest proves the two retention policies compose:
// a wrapped ring keeps the most recent ops, while the slow set keeps
// the highest-latency ops from anywhere in the run.
func TestTracerRingAndSlowest(t *testing.T) {
	tr := NewTracer()
	tr.slowCap = 4
	// One early outlier, then a long tail of fast ops that wraps the
	// ring several times.
	outlier := mkOp(0, "replace", 0, 1_000_000)
	tr.Add(outlier)
	for i := int64(1); i <= 3*ringCap; i++ {
		tr.Add(mkOp(0, "read", i*10, i*10+5))
	}
	ops := tr.Ops()
	// Ring holds the last ringCap; slow set holds the outlier plus 3
	// others.
	if len(ops) != ringCap+4 {
		t.Fatalf("Ops = %d, want the ring's %d plus the slow set's 4", len(ops), ringCap)
	}
	seen := false
	for _, op := range ops {
		if op == outlier {
			seen = true
		}
	}
	if !seen {
		t.Fatal("slow set lost the early outlier after ring wrap")
	}
	slow := tr.Slowest(1)
	if len(slow) != 1 || slow[0] != outlier {
		t.Fatalf("Slowest(1) = %+v, want the outlier", slow)
	}
	// Ops are ordered by start and deduplicated.
	for i := 1; i < len(ops); i++ {
		if ops[i].Start < ops[i-1].Start {
			t.Fatal("Ops not ordered by start")
		}
	}
	dedup := map[*OpTrace]bool{}
	for _, op := range ops {
		if dedup[op] {
			t.Fatal("Ops returned a duplicate")
		}
		dedup[op] = true
	}
}

// TestTracerPartialRing covers the unwrapped ring: fewer ops than
// capacity must all be returned.
func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer()
	for i := int64(0); i < 5; i++ {
		tr.Add(mkOp(0, "read", i, i+1))
	}
	if got := len(tr.Ops()); got != 5 {
		t.Fatalf("Ops = %d, want 5", got)
	}
}

// TestWriteJSONL checks one well-formed JSON object per line with the
// span detail intact.
func TestWriteJSONL(t *testing.T) {
	tr := NewTracer()
	op := mkOp(2, "read", 100, 900)
	op.Phase = "test phase"
	op.addSpan(Span{Layer: "disk", Op: "readall", Start: 150, Dur: 700})
	tr.Add(op)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var got OpTrace
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if got.Kind != "read" || got.Stream != 2 || len(got.Spans) != 1 {
			t.Fatalf("round trip lost fields: %s", sc.Text())
		}
		if got.Spans[0].Layer != "disk" || got.Spans[0].Dur != 700 {
			t.Fatalf("span lost: %+v", got.Spans[0])
		}
	}
	if lines != 1 {
		t.Fatalf("lines = %d", lines)
	}
}

// TestWriteChromeTrace checks the trace-event envelope: process
// metadata per phase, an "X" slice per op and per span, timestamps in
// virtual microseconds.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	a := mkOp(1, "read", 2000, 5000)
	a.Phase = "phase A"
	a.addSpan(Span{Layer: "disk", Op: "readall", Start: 2500, Dur: 2000})
	b := mkOp(3, "create", 6000, 9000)
	b.Phase = "phase B"
	tr.Add(a)
	tr.Add(b)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var meta, slices int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			pids[ev.Pid] = true
		case "X":
			slices++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || len(pids) != 2 {
		t.Fatalf("want one process per phase, got %d metadata / %d pids", meta, len(pids))
	}
	// 2 op slices + 1 span slice.
	if slices != 3 {
		t.Fatalf("slices = %d, want 3", slices)
	}
	// Span timestamps are µs: op a starts at 2000ns = 2µs.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "read k2000" {
			found = true
			if ev.Ts != 2.0 || ev.Dur != 3.0 {
				t.Fatalf("op a ts/dur = %g/%g µs, want 2/3", ev.Ts, ev.Dur)
			}
			if ev.Tid != 1 {
				t.Fatalf("tid = %d, want stream 1", ev.Tid)
			}
		}
	}
	if !found {
		t.Fatal("op slice missing")
	}
}

// TestCollectorLifecycle drives StartOp/FinishOp directly: op-level
// histograms for successes, error counters for failures, and the
// span-witness hit/miss split for reads.
func TestCollectorLifecycle(t *testing.T) {
	clock := vclock.New()
	reg := NewRegistry()
	tr := NewTracer()
	c := &Collector{Registry: reg, Tracer: tr, Clock: clock, Phase: "p", MissLayer: "disk"}

	// A read that recorded a disk read span: miss.
	ctx, op := c.StartOp(context.Background(), 0, "read", "a")
	if opFromContext(ctx) != op {
		t.Fatal("StartOp did not thread the op through context")
	}
	clock.Advance(100)
	op.addSpan(Span{Layer: "disk", Op: "readall", Start: 0, Dur: 100})
	c.FinishOp(op, nil)

	// A read with no disk span: hit.
	_, op2 := c.StartOp(context.Background(), 1, "read", "b")
	clock.Advance(10)
	c.FinishOp(op2, nil)

	// A failed read: error counter, no histogram point.
	_, op3 := c.StartOp(context.Background(), 1, "read", "c")
	c.FinishOp(op3, blob.ErrNotFound)

	s := reg.Snapshot()
	if n := s.Histograms["op.read"].Count; n != 2 {
		t.Fatalf("op.read count = %d, want 2 (errors excluded)", n)
	}
	if n := s.Histograms["read.miss"].Count; n != 1 {
		t.Fatalf("read.miss = %d", n)
	}
	if n := s.Histograms["read.hit"].Count; n != 1 {
		t.Fatalf("read.hit = %d", n)
	}
	if s.Histograms["read.miss"].Min != 100 || s.Histograms["read.hit"].Min != 10 {
		t.Fatalf("hit/miss latency swapped: %+v / %+v",
			s.Histograms["read.miss"], s.Histograms["read.hit"])
	}
	if s.Counters["op.read.err.notfound"] != 1 {
		t.Fatalf("error counter: %v", s.Counters)
	}
	if op3.Err != "notfound" {
		t.Fatalf("op err = %q", op3.Err)
	}
	if len(tr.Ops()) != 3 {
		t.Fatalf("tracer ops = %d", len(tr.Ops()))
	}

	// A nil collector is inert everywhere.
	var nilc *Collector
	ctx2, nop := nilc.StartOp(context.Background(), 0, "read", "x")
	if nop != nil || ctx2 != context.Background() {
		t.Fatal("nil collector should be a no-op")
	}
	nilc.FinishOp(nil, nil)
}

// TestErrName pins the sentinel → label mapping (blob.ErrName) that
// metric names and trace fields carry.
func TestErrName(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{blob.ErrNotFound, "notfound"},
		{blob.ErrAlreadyExists, "exists"},
		{blob.ErrNoSpaceLeft, "nospace"},
		{blob.ErrInvalidSize, "badsize"},
		{blob.ErrOutOfRange, "outofrange"},
		{blob.ErrClosed, "closed"},
		{blob.ErrBusy, "busy"},
		{blob.ErrCrashed, "crashed"},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "deadline"},
		{fmt.Errorf("nope"), "other"},
		{fmt.Errorf("wrapped: %w", blob.ErrNotFound), "notfound"},
	}
	for _, tc := range cases {
		if got := blob.ErrName(tc.err); got != tc.want {
			t.Errorf("ErrName(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

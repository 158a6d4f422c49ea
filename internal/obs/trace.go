package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"

	"repro/internal/blob"
	"repro/internal/vclock"
)

// Span is one layer crossing of a traced operation: the obs.Store at
// layer L spent Dur virtual ns in operation Op. Spans nest by time
// containment — an op's "disk.readall" span sits inside its executor
// op interval, and a Chrome trace viewer renders them as a flame.
type Span struct {
	// Layer is the obs.Store layer that recorded the span.
	Layer string `json:"layer"`
	// Op is the store operation ("open", "readall", "commit", ...).
	Op string `json:"op"`
	// Start is the span's start on the virtual clock, ns.
	Start int64 `json:"start"`
	// Dur is the span's virtual duration, ns.
	Dur int64 `json:"dur"`
	// Err is the failure sentinel name, empty on success.
	Err string `json:"err,omitempty"`
}

// OpTrace is one end-to-end traced operation: the executor-level
// interval plus every layer span recorded while it was in flight.
type OpTrace struct {
	// Phase labels the experiment arm ("interleave database k=4").
	Phase string `json:"phase,omitempty"`
	// Stream is the operation stream (track) the op ran on.
	Stream int `json:"stream"`
	// Kind is the workload op kind ("create", "replace", "delete",
	// "read").
	Kind string `json:"kind"`
	// Key is the object key.
	Key string `json:"key"`
	// Start and End bound the op on the virtual clock, ns.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Err is the failure sentinel name, empty on success.
	Err string `json:"err,omitempty"`
	// Spans are the per-layer crossings, in recording order.
	Spans []Span `json:"spans,omitempty"`

	mu sync.Mutex
}

// Duration returns the op's virtual latency in ns.
func (t *OpTrace) Duration() int64 { return t.End - t.Start }

// addSpan appends one layer span. Called by obs.Store from the op's
// own goroutine in the common case, but lock anyway: a group-commit
// leader applies its followers' commits from its own goroutine while
// their ops wait.
func (t *OpTrace) addSpan(s Span) {
	t.mu.Lock()
	t.Spans = append(t.Spans, s)
	t.mu.Unlock()
}

// hasReadSpan reports whether any read span (readall/readat) was
// recorded at the given layer — the cache-miss witness: an op that
// never read below the cache layer was served from memory.
func (t *OpTrace) hasReadSpan(layer string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.Spans {
		if s.Layer == layer && (s.Op == "readall" || s.Op == "readat") {
			return true
		}
	}
	return false
}

// opCtxKey carries the in-flight *OpTrace through context.
type opCtxKey struct{}

// opFromContext returns the op being traced in ctx, or nil.
func opFromContext(ctx context.Context) *OpTrace {
	op, _ := ctx.Value(opCtxKey{}).(*OpTrace)
	return op
}

// Tracer keeps a bounded ring of recent completed ops plus the slowest
// ops seen, so a p999 outlier survives long after the ring has wrapped
// past it. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	ring    []*OpTrace
	next    int
	wrapped bool
	slow    []*OpTrace // unordered; smallest evicted on overflow
	slowCap int
}

// ringCap is the ring's capacity: the most recent ops a tracer keeps.
const ringCap = 4096

// defaultSlowCap is how many slowest ops survive ring wrap-around.
const defaultSlowCap = 64

// NewTracer returns a tracer whose ring keeps the last 4096 ops.
func NewTracer() *Tracer {
	return &Tracer{ring: make([]*OpTrace, ringCap), slowCap: defaultSlowCap}
}

// Add records one completed op.
func (tr *Tracer) Add(op *OpTrace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ring[tr.next] = op
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.wrapped = true
	}
	if len(tr.slow) < tr.slowCap {
		tr.slow = append(tr.slow, op)
		return
	}
	minI := 0
	for i, s := range tr.slow {
		if s.Duration() < tr.slow[minI].Duration() {
			minI = i
		}
	}
	if op.Duration() > tr.slow[minI].Duration() {
		tr.slow[minI] = op
	}
}

// Ops returns the retained ops — the recent ring plus the slowest
// survivors — deduplicated and ordered by start time.
func (tr *Tracer) Ops() []*OpTrace {
	tr.mu.Lock()
	seen := make(map[*OpTrace]bool, len(tr.ring)+len(tr.slow))
	var out []*OpTrace
	add := func(op *OpTrace) {
		if op != nil && !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	n := tr.next
	if tr.wrapped {
		n = len(tr.ring)
	}
	for i := 0; i < n; i++ {
		add(tr.ring[i])
	}
	for _, op := range tr.slow {
		add(op)
	}
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// Slowest returns up to k retained ops by descending virtual latency —
// the p999 inspection entry point.
func (tr *Tracer) Slowest(k int) []*OpTrace {
	ops := tr.Ops()
	sort.Slice(ops, func(i, j int) bool { return ops[i].Duration() > ops[j].Duration() })
	if len(ops) > k {
		ops = ops[:k]
	}
	return ops
}

// WriteJSONL writes every retained op as one JSON object per line,
// ordered by start time.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, op := range tr.Ops() {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" = complete event, "M" =
// metadata). Timestamps are virtual microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained ops in Chrome trace-event JSON
// (load in chrome://tracing or Perfetto): one process per experiment
// phase, one thread track per operation stream, an "X" slice per op
// and nested slices per layer span. All timestamps are virtual
// microseconds, so the flame is deterministic per seed.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	ops := tr.Ops()
	pids := map[string]int{}
	var events []chromeEvent
	for _, op := range ops {
		pid, ok := pids[op.Phase]
		if !ok {
			pid = len(pids) + 1
			pids[op.Phase] = pid
			name := op.Phase
			if name == "" {
				name = "run"
			}
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": name},
			})
		}
		args := map[string]any{"key": op.Key}
		if op.Err != "" {
			args["err"] = op.Err
		}
		events = append(events, chromeEvent{
			Name: op.Kind + " " + op.Key, Cat: "op", Ph: "X",
			Ts:  float64(op.Start) / 1e3,
			Dur: float64(op.Duration()) / 1e3,
			Pid: pid, Tid: op.Stream, Args: args,
		})
		for _, s := range op.Spans {
			sargs := map[string]any{"layer": s.Layer}
			if s.Err != "" {
				sargs["err"] = s.Err
			}
			events = append(events, chromeEvent{
				Name: s.Layer + "." + s.Op, Cat: "layer", Ph: "X",
				Ts:  float64(s.Start) / 1e3,
				Dur: float64(s.Dur) / 1e3,
				Pid: pid, Tid: op.Stream, Args: sargs,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// Collector ties op-level observability together for an executor: it
// opens one OpTrace per operation (threading it through context so
// obs.Store layers can attach spans), records whole-op latency
// histograms, classifies reads as cache hit or miss, and feeds the
// tracer. Any field may be nil/empty; a nil *Collector disables
// everything.
type Collector struct {
	// Registry receives op.<kind> latency histograms and error
	// counters; nil records none. Must be a virtual-unit registry — the
	// collector times ops on the virtual clock (FinishOp panics on a
	// wall-unit registry).
	Registry *Registry
	// Tracer retains completed ops; nil traces none.
	Tracer *Tracer
	// Clock is the virtual clock ops are timed on. Required.
	Clock *vclock.Clock
	// Phase labels this collector's ops in the trace.
	Phase string
	// MissLayer, when non-empty, classifies read ops: a read that
	// recorded a read span at this layer went below the cache (miss);
	// one that did not was served above it (hit). Successful reads are
	// then recorded into read.hit / read.miss histograms alongside
	// op.read.
	MissLayer string
}

// StartOp opens a traced operation on the given stream, returning the
// context the op's store calls must carry. A nil collector returns ctx
// unchanged and a nil op.
func (c *Collector) StartOp(ctx context.Context, stream int, kind, key string) (context.Context, *OpTrace) {
	if c == nil {
		return ctx, nil
	}
	op := &OpTrace{Phase: c.Phase, Stream: stream, Kind: kind, Key: key, Start: c.Clock.Now()}
	return context.WithValue(ctx, opCtxKey{}, op), op
}

// FinishOp completes a traced operation: stamps the end time, records
// the op-level histogram (successes) or error counter (failures),
// classifies hit/miss, and hands the op to the tracer. A nil collector
// or nil op is a no-op.
func (c *Collector) FinishOp(op *OpTrace, err error) {
	if c == nil || op == nil {
		return
	}
	op.End = c.Clock.Now()
	if err != nil {
		op.Err = blob.ErrName(err)
	}
	if c.Registry != nil {
		mustVirtual(c.Registry, "obs.Collector")
		if err != nil {
			c.Registry.Counter("op." + op.Kind + ".err." + op.Err).Inc()
		} else {
			d := op.Duration()
			c.Registry.Histogram("op." + op.Kind).Observe(d)
			if c.MissLayer != "" && op.Kind == "read" {
				if op.hasReadSpan(c.MissLayer) {
					c.Registry.Histogram("read.miss").Observe(d)
				} else {
					c.Registry.Histogram("read.hit").Observe(d)
				}
			}
		}
	}
	if c.Tracer != nil {
		c.Tracer.Add(op)
	}
}

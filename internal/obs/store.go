package obs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blob"
	"repro/internal/vclock"
)

// Store wraps any blob.Store and times every operation against the
// store's virtual clock, recording per-layer latency histograms into a
// Registry and attaching layer spans to any OpTrace the context
// carries. It is semantics-transparent: every call forwards to the
// wrapped store unchanged (sentinels, version pinning, context
// cancellation all pass through), and the store contract runs
// obs-wrapped to prove it.
//
// Because the wrapper composes anywhere in the chain, the same logical
// op can be attributed at each layer it crosses: wrap above the cache
// and below it to split hits from miss-fills, wrap each shard child to
// see per-shard skew, wrap the backend to see commit queue-wait vs.
// group force (with blob.WithCommitObserver supplying the split).
//
// Metric names are "<layer>.<op>" histograms for successes and
// "<layer>.<op>.err.<sentinel>" counters for failures. Latencies are
// VIRTUAL nanoseconds: with k concurrent streams an op's interval
// includes time charged by other streams while it was in flight — the
// queueing view a tail-latency SLO needs.
//
// Wrap with a nil Registry to disable recording: the wrapper then
// forwards with one branch of overhead per call (BenchmarkObsOverhead
// pins it), so instrumented compositions need no build-time switch.
type Store struct {
	// Store is the wrapped store, embedded so everything this layer does
	// not time — Name, Clock, the introspection methods — forwards by
	// promotion: report labels and logs are unchanged by instrumenting
	// a chain. Capabilities it does not time are reached through Inner
	// by blob.As.
	blob.Store
	layer string
	reg   *Registry
	clock *vclock.Clock
}

// Wrap instruments inner as observation layer `layer`. A nil reg
// disables recording (spans are still attached to traced ops when a
// collector is active upstream — they cost only when tracing). Wrap
// measures the virtual clock, so a wall-unit registry is a wiring bug
// and panics: mixing vclock ns into a wall_ns registry would corrupt
// the report silently.
func Wrap(inner blob.Store, layer string, reg *Registry) *Store {
	mustVirtual(reg, "obs.Wrap")
	return &Store{Store: inner, layer: layer, reg: reg, clock: inner.Clock()}
}

// mustVirtual panics when reg records wall time — the guard every
// vclock-timed recorder calls at construction.
func mustVirtual(reg *Registry, who string) {
	if reg.Unit() == UnitWall {
		panic(who + ": registry records wall_ns but measurements are virtual-clock ns; use a NewRegistry (virtual) registry")
	}
}

// Inner returns the wrapped store, so capability probes (blob.As: the
// compactor fleet's shard fan-out discovery, CommitStatsOf) can see
// through the obs layer.
func (s *Store) Inner() blob.Store { return s.Store }

// enabled reports whether this layer records anything at all.
func (s *Store) enabled(ctx context.Context) bool {
	return s.reg != nil || opFromContext(ctx) != nil
}

// observe records one completed call: a latency histogram point or an
// error counter in the registry, plus a span on the traced op.
func (s *Store) observe(op *OpTrace, name string, start int64, err error) {
	dur := s.clock.Now() - start
	if s.reg != nil {
		if err != nil {
			s.reg.Counter(s.layer + "." + name + ".err." + blob.ErrName(err)).Inc()
		} else {
			s.reg.Histogram(s.layer + "." + name).Observe(dur)
		}
	}
	if op != nil {
		op.addSpan(Span{Layer: s.layer, Op: name, Start: start, Dur: dur, Err: blob.ErrName(err)})
	}
}

// Open implements blob.Store, timing the open and wrapping the reader
// so its reads are timed at this layer too.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if !s.enabled(ctx) {
		return s.Store.Open(ctx, key)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	r, err := s.Store.Open(ctx, key)
	s.observe(op, "open", start, err)
	if err != nil {
		return nil, err
	}
	return &obsReader{r: r, s: s, op: op}, nil
}

// Create implements blob.Store; the writer's Commit is timed at this
// layer (queue wait + group force included — the commit observer
// splits them).
func (s *Store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	if !s.enabled(ctx) {
		return s.Store.Create(ctx, key, size)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	w, err := s.Store.Create(ctx, key, size)
	s.observe(op, "create", start, err)
	if err != nil {
		return nil, err
	}
	return &obsWriter{w: w, s: s, op: op}, nil
}

// Replace implements blob.Store.
func (s *Store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	if !s.enabled(ctx) {
		return s.Store.Replace(ctx, key, size)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	w, err := s.Store.Replace(ctx, key, size)
	s.observe(op, "replace", start, err)
	if err != nil {
		return nil, err
	}
	return &obsWriter{w: w, s: s, op: op}, nil
}

// Delete implements blob.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if !s.enabled(ctx) {
		return s.Store.Delete(ctx, key)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	err := s.Store.Delete(ctx, key)
	s.observe(op, "delete", start, err)
	return err
}

// Stat implements blob.Store.
func (s *Store) Stat(ctx context.Context, key string) (blob.Info, error) {
	if !s.enabled(ctx) {
		return s.Store.Stat(ctx, key)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	info, err := s.Store.Stat(ctx, key)
	s.observe(op, "stat", start, err)
	return info, err
}

// CompactObject forwards a compactor rewrite, timed as
// "<layer>.compact" (a rewrite is a full read+write of the object
// through the chain — the compaction tax, per object).
func (s *Store) CompactObject(ctx context.Context, key string) (int64, error) {
	rw, ok := blob.As[blob.Rewriter](s.Store)
	if !ok {
		return 0, fmt.Errorf("%w: %s cannot compact objects", errors.ErrUnsupported, s.Store.Name())
	}
	if !s.enabled(ctx) {
		return rw.CompactObject(ctx, key)
	}
	op := opFromContext(ctx)
	start := s.clock.Now()
	n, err := rw.CompactObject(ctx, key)
	s.observe(op, "compact", start, err)
	return n, err
}

var _ blob.Store = (*Store)(nil)

// obsReader times reads at the wrapping layer. It carries the OpTrace
// from Open, so reads attribute to the op that opened the handle — the
// executor's Open/read/Close per-op pattern. A handle read under a
// different op than its Open attributes to the opening op, which is
// the end-to-end view a trace wants anyway.
type obsReader struct {
	r  blob.Reader
	s  *Store
	op *OpTrace
}

// Size implements blob.Reader.
func (r *obsReader) Size() int64 { return r.r.Size() }

// ReadAll implements blob.Reader.
func (r *obsReader) ReadAll() ([]byte, error) {
	start := r.s.clock.Now()
	data, err := r.r.ReadAll()
	r.s.observe(r.op, "readall", start, err)
	return data, err
}

// ReadAt implements blob.Reader.
func (r *obsReader) ReadAt(off, length int64) ([]byte, error) {
	start := r.s.clock.Now()
	data, err := r.r.ReadAt(off, length)
	r.s.observe(r.op, "readat", start, err)
	return data, err
}

// Close implements blob.Reader (not timed; closing charges nothing).
func (r *obsReader) Close() error { return r.r.Close() }

// obsWriter times Commit at the wrapping layer. Appends are not
// individually timed — they flow in request-sized chunks and the
// op-level histogram already covers the whole write — but Commit is
// the latency-critical call: it spans the group-commit queue wait and
// the batch's force.
type obsWriter struct {
	w  blob.Writer
	s  *Store
	op *OpTrace
}

// Append implements blob.Writer.
func (w *obsWriter) Append(n int64, data []byte) error { return w.w.Append(n, data) }

// Write implements blob.Writer.
func (w *obsWriter) Write(p []byte) (int, error) { return w.w.Write(p) }

// Commit implements blob.Writer.
func (w *obsWriter) Commit() error {
	start := w.s.clock.Now()
	err := w.w.Commit()
	w.s.observe(w.op, "commit", start, err)
	return err
}

// Abort implements blob.Writer.
func (w *obsWriter) Abort() error { return w.w.Abort() }

// commitObserver records the group-commit pipeline's queue-wait/force
// split into a registry.
type commitObserver struct {
	wait  *Histogram
	force *Histogram
	batch *Histogram
}

// NewCommitObserver returns a blob.CommitObserver recording into reg:
// "<layer>.commit.queuewait" (per commit: virtual ns spent enqueued
// before its batch began) and "<layer>.commit.force" (per batch: the
// one group force's virtual ns), plus "<layer>.commit.batch" (batch
// sizes). Pass it to the store via blob.WithCommitObserver. The
// measurements are virtual ns, so a wall-unit registry panics.
func NewCommitObserver(reg *Registry, layer string) blob.CommitObserver {
	mustVirtual(reg, "obs.NewCommitObserver")
	return &commitObserver{
		wait:  reg.Histogram(layer + ".commit.queuewait"),
		force: reg.Histogram(layer + ".commit.force"),
		batch: reg.Histogram(layer + ".commit.batch"),
	}
}

// ObserveQueueWait implements blob.CommitObserver.
func (o *commitObserver) ObserveQueueWait(ns int64) { o.wait.Observe(ns) }

// ObserveForce implements blob.CommitObserver.
func (o *commitObserver) ObserveForce(ns int64, batch int) {
	o.force.Observe(ns)
	o.batch.Observe(int64(batch))
}

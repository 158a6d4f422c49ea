package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
)

// Tracing is done from outside the program: the bench interposes its own
// blob.Store shims between layers and an http.Handler middleware around
// the server, and its client loop (or its executor Source) opens the
// root span. Spans stay in memory until the run ends.

// span is one timed interval at one layer boundary. Spans of one op
// share Op; Parent indexes the op's span list (-1 for the root).
type span struct {
	Op     int64
	Parent int32
	Layer  string
	Call   string
	Start  int64 // ns since the tracer started
	End    int64
}

// opTrace is the spans of one op. One op runs on one goroutine at a
// time, but hops between the client's and the server's, so a mutex
// orders the hand-over.
type opTrace struct {
	mu     sync.Mutex
	id     int64
	client int
	kind   opKind
	spans  []span
	cur    int32 // innermost open span
}

// tracer records the spans of a traced round.
type tracer struct {
	root string // layer name of the root span: "workload" or "client"
	t0   time.Time

	mu       sync.Mutex
	nextID   int64
	inflight []*opTrace // by client: the op each client has in flight
	done     []*opTrace
}

func newTracer(root string, clients int) *tracer {
	return &tracer{root: root, t0: time.Now(), inflight: make([]*opTrace, clients)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of client's next op.
func (t *tracer) beginOp(client int, kind opKind) {
	op := &opTrace{client: client, kind: kind, spans: make([]span, 1, 8)}
	t.mu.Lock()
	t.nextID++
	op.id = t.nextID
	t.inflight[client] = op
	t.mu.Unlock()
	op.spans[0] = span{Op: op.id, Parent: -1, Layer: t.root, Call: kind.String(), Start: t.now()}
}

// endOp closes the root span.
func (t *tracer) endOp(client int) {
	end := t.now()
	t.mu.Lock()
	op := t.inflight[client]
	t.inflight[client] = nil
	t.done = append(t.done, op)
	t.mu.Unlock()
	op.mu.Lock()
	op.spans[0].End = end
	op.mu.Unlock()
}

// current finds the traced op a key belongs to: each client owns the
// keys under "c<client>/" and has one op in flight, so the key names the
// op on both sides of the HTTP hop. Untimed ops (setup, sweeps) have no
// op in flight and are not traced.
func (t *tracer) current(key string) *opTrace {
	client := 0
	if rest, ok := strings.CutPrefix(key, "c"); ok {
		for i := 0; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
			client = client*10 + int(rest[i]-'0')
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if client >= len(t.inflight) {
		return nil
	}
	return t.inflight[client]
}

// enter opens a child span of the op's innermost open span.
func (t *tracer) enter(op *opTrace, layer, call string) int32 {
	op.mu.Lock()
	defer op.mu.Unlock()
	idx := int32(len(op.spans))
	op.spans = append(op.spans, span{Op: op.id, Parent: op.cur, Layer: layer, Call: call, Start: t.now()})
	op.cur = idx
	return idx
}

func (t *tracer) exit(op *opTrace, idx int32) {
	end := t.now()
	op.mu.Lock()
	op.spans[idx].End = end
	op.cur = op.spans[idx].Parent
	op.mu.Unlock()
}

// selfTimes returns, for each span of one op, its duration minus the
// part of it its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		k := kids[i]
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].Start < spans[k[b]].Start })
		covered := s.Start // children cover nothing before this point yet
		for _, c := range k {
			lo, hi := max(spans[c].Start, covered), min(spans[c].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// layerTotals accumulates self time per layer and op class over traced
// rounds.
type layerTotals struct {
	selfNs  map[string]*[2]int64 // layer -> [read, write] self ns
	spanNs  map[string]*[2]int64 // layer -> [read, write] inclusive ns of its outermost spans
	ops     [2]int64             // timed reads, writes
	allOps  int64
	rootNs  int64 // sum of root spans
	selfSum int64 // sum of every span's self time
}

func newLayerTotals() *layerTotals {
	return &layerTotals{selfNs: map[string]*[2]int64{}, spanNs: map[string]*[2]int64{}}
}

// add folds one round's ops in.
func (lt *layerTotals) add(ops []*opTrace) {
	for _, op := range ops {
		self := selfTimes(op.spans)
		lt.allOps++
		lt.rootNs += op.spans[0].End - op.spans[0].Start
		class := -1
		switch op.kind {
		case opRead:
			class = 0
		case opReplace:
			class = 1
		}
		if class >= 0 {
			lt.ops[class]++
		}
		for i, s := range op.spans {
			lt.selfSum += self[i]
			if class < 0 {
				continue
			}
			if lt.selfNs[s.Layer] == nil {
				lt.selfNs[s.Layer], lt.spanNs[s.Layer] = new([2]int64), new([2]int64)
			}
			lt.selfNs[s.Layer][class] += self[i]
			if s.Parent < 0 || op.spans[s.Parent].Layer != s.Layer {
				lt.spanNs[s.Layer][class] += s.End - s.Start
			}
		}
	}
}

// selfUs is a layer's mean self time per op of a class, in µs.
func (lt *layerTotals) selfUs(layer string, class int) float64 {
	if lt.selfNs[layer] == nil || lt.ops[class] == 0 {
		return 0
	}
	return float64(lt.selfNs[layer][class]) / float64(lt.ops[class]) / 1e3
}

func (lt *layerTotals) spanUs(layer string, class int) float64 {
	if lt.spanNs[layer] == nil || lt.ops[class] == 0 {
		return 0
	}
	return float64(lt.spanNs[layer][class]) / float64(lt.ops[class]) / 1e3
}

// spanStore is the shim the traced mode puts above a layer: it records a
// span around every call into the layer, including the calls on the
// readers and writers the layer hands out, and counts calls and errors.
type spanStore struct {
	blob.Store
	layer  string
	tr     *tracer
	calls  atomic.Int64
	errors atomic.Int64
}

func (s *spanStore) begin(key, call string) (*opTrace, int32) {
	op := s.tr.current(key)
	if op == nil {
		return nil, 0
	}
	s.calls.Add(1)
	return op, s.tr.enter(op, s.layer, call)
}

func (s *spanStore) end(op *opTrace, idx int32, err error) {
	if op == nil {
		return
	}
	s.tr.exit(op, idx)
	if err != nil {
		s.errors.Add(1)
	}
}

func (s *spanStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	op, idx := s.begin(key, "Open")
	r, err := s.Store.Open(ctx, key)
	s.end(op, idx, err)
	if err != nil || op == nil {
		return r, err
	}
	return &spanReader{Reader: r, s: s, op: op}, nil
}

func (s *spanStore) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	op, idx := s.begin(key, "Create")
	w, err := s.Store.Create(ctx, key, size)
	s.end(op, idx, err)
	if err != nil || op == nil {
		return w, err
	}
	return &spanWriter{Writer: w, s: s, op: op}, nil
}

func (s *spanStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	op, idx := s.begin(key, "Replace")
	w, err := s.Store.Replace(ctx, key, size)
	s.end(op, idx, err)
	if err != nil || op == nil {
		return w, err
	}
	return &spanWriter{Writer: w, s: s, op: op}, nil
}

func (s *spanStore) Delete(ctx context.Context, key string) error {
	op, idx := s.begin(key, "Delete")
	err := s.Store.Delete(ctx, key)
	s.end(op, idx, err)
	return err
}

func (s *spanStore) Stat(ctx context.Context, key string) (blob.Info, error) {
	op, idx := s.begin(key, "Stat")
	info, err := s.Store.Stat(ctx, key)
	s.end(op, idx, err)
	return info, err
}

// CommitStats and Close keep the capabilities the layers above look for
// reachable through the shim.
func (s *spanStore) CommitStats() blob.CommitStats {
	cs, _ := blob.CommitStatsOf(s.Store)
	return cs
}

func (s *spanStore) Close() error { return blob.CloseStore(s.Store) }

// call records one handle method as a span of the shim's layer.
func (s *spanStore) call(op *opTrace, name string, f func() error) error {
	s.calls.Add(1)
	idx := s.tr.enter(op, s.layer, name)
	err := f()
	s.end(op, idx, err)
	return err
}

type spanReader struct {
	blob.Reader
	s  *spanStore
	op *opTrace
}

func (r *spanReader) ReadAll() (data []byte, err error) {
	err = r.s.call(r.op, "ReadAll", func() error { data, err = r.Reader.ReadAll(); return err })
	return
}

func (r *spanReader) ReadAt(off, length int64) (data []byte, err error) {
	err = r.s.call(r.op, "ReadAt", func() error { data, err = r.Reader.ReadAt(off, length); return err })
	return
}

func (r *spanReader) Close() error { return r.s.call(r.op, "Close", r.Reader.Close) }

type spanWriter struct {
	blob.Writer
	s  *spanStore
	op *opTrace
}

func (w *spanWriter) Append(n int64, data []byte) error {
	return w.s.call(w.op, "Append", func() error { return w.Writer.Append(n, data) })
}

func (w *spanWriter) Write(p []byte) (n int, err error) {
	err = w.s.call(w.op, "Write", func() error { n, err = w.Writer.Write(p); return err })
	return
}

func (w *spanWriter) Commit() error { return w.s.call(w.op, "Commit", w.Writer.Commit) }
func (w *spanWriter) Abort() error  { return w.s.call(w.op, "Abort", w.Writer.Abort) }

// middleware wraps the server's handler: one "server" span per blob
// request, found through the key in the URL, plus status counts.
type middleware struct {
	next                http.Handler
	tr                  *tracer
	calls, errors, shed atomic.Int64
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, isBlob := strings.CutPrefix(r.URL.Path, "/v1/blobs/")
	var op *opTrace
	if isBlob {
		op = m.tr.current(key)
	}
	if op == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	m.calls.Add(1)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	idx := m.tr.enter(op, "server", r.Method)
	m.next.ServeHTTP(sw, r)
	m.tr.exit(op, idx)
	if sw.status >= 400 {
		m.errors.Add(1)
	}
	if sw.status == http.StatusTooManyRequests {
		m.shed.Add(1)
	}
}

// writeSpans writes every span of ops as one JSON object per line.
func writeSpans(path string, ops []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, op := range ops {
		for i, s := range op.spans {
			fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"client":%d,"kind":%q,"layer":%q,"call":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Op, i, s.Parent, op.client, op.kind.String(), s.Layer, s.Call, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace writes the slowest 64 ops plus a 1-in-N sample of the
// rest in Chrome's trace-event format (chrome://tracing, Perfetto).
func writeChromeTrace(path string, ops []*opTrace) error {
	byDur := append([]*opTrace(nil), ops...)
	sort.Slice(byDur, func(i, j int) bool {
		return byDur[i].spans[0].End-byDur[i].spans[0].Start > byDur[j].spans[0].End-byDur[j].spans[0].Start
	})
	keep := map[int64]bool{}
	for _, op := range byDur[:min(64, len(byDur))] {
		keep[op.id] = true
	}
	every := max(len(ops)/512, 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i, op := range ops {
		if !keep[op.id] && i%every != 0 {
			continue
		}
		for _, s := range op.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"op":%d,"kind":%q}}`,
				s.Layer+"."+s.Call, s.Layer, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, op.client, s.Op, op.kind.String())
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

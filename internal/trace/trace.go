// Package trace implements trace-based load generation, the complement
// the paper calls for: "Trace-based workload generation and a better
// understanding of real-world large object workloads would complement
// this study" (§5.4); §3.3 contrasts trace-based with the vector-based
// generation package workload provides.
//
// A trace is a sequence of allocation events (§1's get/put operations)
// in a line-oriented text format (v2):
//
//	put <key> <size> [stream]
//	replace <key> <size> [stream]
//	delete <key> [stream]
//	get <key> [stream]
//	getrange <key> <off> <len> [stream]
//
// The trailing stream column is optional (v2): a positive integer
// tagging the op with the writer stream that issued it, so a recorded
// multi-stream workload can be replayed with its original partitioning.
// Ops without the column (every v1 trace) carry Stream 0, "untagged".
//
// Traces can be recorded from live store activity (Recorder), replayed
// against any blob.Store — single-stream (Replay) or as k concurrent
// writer streams (Partition + Replay), both through the shared
// workload.Executor — streamed from an io.Reader without materializing
// the whole log (Source), and analysed without execution: storage age
// "can be computed from the data allocation rate" (§4.4), which Analyze
// does.
package trace

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/blob"
	"repro/internal/units"
	"repro/internal/workload"
)

// Op is one trace event: the executor's typed op plus the v2 stream
// tag. A whole-object read (Len 0) is a "get" line, a ranged read a
// "getrange"; creates are "put" lines.
type Op struct {
	workload.Op
	// Stream tags the op with the writer stream that issued it (the v2
	// trace format's optional trailing column). 0 means untagged.
	Stream int
}

// Format renders the op in trace format.
func (o Op) Format() string {
	var s string
	switch {
	case o.Kind == workload.OpCreate:
		s = fmt.Sprintf("put %s %d", o.Key, o.Size)
	case o.Kind == workload.OpReplace:
		s = fmt.Sprintf("replace %s %d", o.Key, o.Size)
	case o.Kind == workload.OpDelete:
		s = "delete " + o.Key
	case o.Len > 0:
		s = fmt.Sprintf("getrange %s %d %d", o.Key, o.Off, o.Len)
	default:
		s = "get " + o.Key
	}
	if o.Stream > 0 {
		s += " " + strconv.Itoa(o.Stream)
	}
	return s
}

// parseStream interprets the optional trailing stream column: rest
// holds the tokens after an op's fixed arguments (none or one).
func parseStream(line string, rest []string) (int, error) {
	switch len(rest) {
	case 0:
		return 0, nil
	case 1:
		id, err := strconv.Atoi(rest[0])
		if err != nil || id < 1 {
			return 0, fmt.Errorf("trace: bad stream id in %q", line)
		}
		return id, nil
	default:
		return 0, fmt.Errorf("trace: trailing fields in %q", line)
	}
}

// ParseOp parses one trace line. Blank lines and lines starting with '#'
// yield ok=false with no error.
func ParseOp(line string) (Op, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Op{}, false, nil
	}
	fields := strings.Fields(line)
	var op Op
	var rest []string
	switch fields[0] {
	case "put", "replace":
		if len(fields) < 3 {
			return Op{}, false, fmt.Errorf("trace: %q needs key and size", line)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size <= 0 {
			return Op{}, false, fmt.Errorf("trace: bad size in %q", line)
		}
		op.Kind, op.Key, op.Size = workload.OpCreate, fields[1], size
		if fields[0] == "replace" {
			op.Kind = workload.OpReplace
		}
		rest = fields[3:]
	case "delete", "get":
		if len(fields) < 2 {
			return Op{}, false, fmt.Errorf("trace: %q needs a key", line)
		}
		op.Kind, op.Key = workload.OpRead, fields[1]
		if fields[0] == "delete" {
			op.Kind = workload.OpDelete
		}
		rest = fields[2:]
	case "getrange":
		if len(fields) < 4 {
			return Op{}, false, fmt.Errorf("trace: %q needs key, offset and length", line)
		}
		off, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || off < 0 {
			return Op{}, false, fmt.Errorf("trace: bad offset in %q", line)
		}
		length, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || length <= 0 {
			return Op{}, false, fmt.Errorf("trace: bad length in %q", line)
		}
		op.Kind, op.Key, op.Off, op.Len = workload.OpRead, fields[1], off, length
		rest = fields[4:]
	default:
		return Op{}, false, fmt.Errorf("trace: unknown op %q", fields[0])
	}
	stream, err := parseStream(line, rest)
	if err != nil {
		return Op{}, false, err
	}
	op.Stream = stream
	return op, true, nil
}

// Write emits ops in trace format.
func Write(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		if _, err := fmt.Fprintln(bw, op.Format()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a whole trace into memory by draining NewSource. For logs
// too large to materialize, replay the Source instead.
func Read(r io.Reader) ([]Op, error) {
	src := NewSource(r)
	var ops []Op
	for op, ok := src.next(); ok; op, ok = src.next() {
		ops = append(ops, op)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// Source adapts a trace to the workload.Source interface, so recorded
// logs drive the same Executor as synthetic churn. A Source built over
// an io.Reader parses one line per Next and never materializes the
// whole log; parse and I/O failures end the stream and surface through
// Err, like bufio.Scanner.
type Source struct {
	sc   *bufio.Scanner // nil for an in-memory source
	line int            // lines scanned so far
	ops  []Op           // what is left of an in-memory source
	err  error
}

// NewSource streams every op from r.
func NewSource(r io.Reader) *Source {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	return &Source{sc: sc}
}

// OpsSources returns one in-memory Source per op slice: a whole log for
// a sequential replay, or the streams of a Partition for a concurrent
// one.
func OpsSources(streams ...[]Op) []*Source {
	out := make([]*Source, len(streams))
	for i, ops := range streams {
		out[i] = &Source{ops: ops}
	}
	return out
}

// next returns the source's next op; ok=false ends the stream, with
// any failure left in s.err. It is the one loop that parses a trace.
func (s *Source) next() (Op, bool) {
	if s.sc == nil {
		if len(s.ops) == 0 {
			return Op{}, false
		}
		op := s.ops[0]
		s.ops = s.ops[1:]
		return op, true
	}
	for s.err == nil && s.sc.Scan() {
		s.line++
		op, ok, err := ParseOp(s.sc.Text())
		if err != nil {
			s.err = fmt.Errorf("line %d: %w", s.line, err)
		} else if ok {
			return op, true
		}
	}
	if s.err == nil {
		s.err = s.sc.Err()
	}
	return Op{}, false
}

// Name implements workload.Source.
func (s *Source) Name() string { return "trace" }

// Err reports the parse or I/O failure that ended the stream, if any.
func (s *Source) Err() error { return s.err }

// Next implements workload.Source. Trace replay consumes no randomness:
// the op sequence is the trace itself.
func (s *Source) Next(*rand.Rand) (workload.Op, bool) {
	op, ok := s.next()
	return op.Op, ok
}

var _ workload.Source = (*Source)(nil)

// Partition splits a trace into k replay streams, preserving op order
// within each stream. The routing rule is decided once for the whole
// trace: a FULLY tagged log (every op carries a v2 stream id) keeps its
// recorded partitioning (stream id modulo k — the recording asserts its
// own cross-stream consistency); any untagged or mixed log routes every
// op by a hash of its key, so all ops touching one key land in the same
// stream and the per-key order — put before replace before delete —
// survives concurrent replay. Partition with k=1 returns the trace
// unchanged: a single-stream replay preserves the recorded allocation
// order exactly.
func Partition(ops []Op, k int) [][]Op {
	if k < 1 {
		k = 1
	}
	byTag := len(ops) > 0
	for _, op := range ops {
		if op.Stream <= 0 {
			byTag = false
			break
		}
	}
	streams := make([][]Op, k)
	for _, op := range ops {
		var idx int
		if byTag {
			idx = op.Stream % k
		} else {
			idx = int(hashKey(op.Key) % uint32(k))
		}
		streams[idx] = append(streams[idx], op)
	}
	return streams
}

// hashKey is an allocation-free FNV-1a over the key, for the per-key
// stream routing of untagged traces.
func hashKey(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Recorder wraps a blob.Store, recording every mutation and read as a
// trace while passing operations through. Mutations are recorded when
// their streaming writer COMMITS — an aborted stream never reaches the
// trace, mirroring what the store itself made durable. Recording is safe
// for concurrent use, like the store it wraps.
type Recorder struct {
	blob.Store

	mu  sync.Mutex
	ops []Op
}

// NewRecorder wraps store.
func NewRecorder(store blob.Store) *Recorder {
	return &Recorder{Store: store}
}

// Inner returns the wrapped store, for analysis tools and blob.As.
func (r *Recorder) Inner() blob.Store { return r.Store }

// Ops returns the recorded trace.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

func (r *Recorder) record(op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

// Create implements blob.Store; the put is recorded at commit.
func (r *Recorder) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	w, err := r.Store.Create(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &recordingWriter{Writer: w, rec: r, op: Op{Op: workload.Op{Kind: workload.OpCreate, Key: key, Size: size}}}, nil
}

// Replace implements blob.Store; the replace is recorded at commit.
func (r *Recorder) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	w, err := r.Store.Replace(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &recordingWriter{Writer: w, rec: r, op: Op{Op: workload.Op{Kind: workload.OpReplace, Key: key, Size: size}}}, nil
}

// Delete implements blob.Store.
func (r *Recorder) Delete(ctx context.Context, key string) error {
	if err := r.Store.Delete(ctx, key); err != nil {
		return err
	}
	r.record(Op{Op: workload.Op{Kind: workload.OpDelete, Key: key}})
	return nil
}

// Open implements blob.Store. Reads are recorded when they complete —
// one "get" per whole-object read, one "getrange" per ranged read — not
// at open, so stat-only opens do not inflate a replay's read volume.
func (r *Recorder) Open(ctx context.Context, key string) (blob.Reader, error) {
	rd, err := r.Store.Open(ctx, key)
	if err != nil {
		return nil, err
	}
	return &recordingReader{Reader: rd, rec: r, key: key}, nil
}

// recordingReader records completed reads: whole-object and ranged.
type recordingReader struct {
	blob.Reader
	rec *Recorder
	key string
}

// ReadAll reads the whole object, then records the get.
func (r *recordingReader) ReadAll() ([]byte, error) {
	data, err := r.Reader.ReadAll()
	if err != nil {
		return data, err
	}
	r.rec.record(Op{Op: workload.Op{Kind: workload.OpRead, Key: r.key}})
	return data, nil
}

// ReadAt reads one range, then records it as a getrange — so replayed
// read traffic matches what a cache layer above the store actually saw,
// range bounds included.
func (r *recordingReader) ReadAt(off, length int64) ([]byte, error) {
	data, err := r.Reader.ReadAt(off, length)
	if err != nil {
		return data, err
	}
	r.rec.record(Op{Op: workload.Op{Kind: workload.OpRead, Key: r.key, Off: off, Len: length}})
	return data, nil
}

// recordingWriter appends its op to the trace once, when the underlying
// writer commits.
type recordingWriter struct {
	blob.Writer
	rec      *Recorder
	op       Op
	recorded bool
}

// Commit commits the underlying writer, then records the mutation.
func (w *recordingWriter) Commit() error {
	if err := w.Writer.Commit(); err != nil {
		return err
	}
	if !w.recorded {
		w.rec.record(w.op)
		w.recorded = true
	}
	return nil
}

// Result summarises a replay.
type Result struct {
	Ops          int
	Streams      int
	BytesWritten int64
	BytesRead    int64
	Seconds      float64
	WriteMBps    float64
	StorageAge   float64
}

// Replay drives store with one executor stream per source — in-memory
// (OpsSources) or reading a log line by line (NewSource) — through the
// shared workload.Executor. One source replays sequentially, preserving
// the recorded allocation order; k sources (normally OpsSources over a
// Partition of one recorded log) run as k goroutine streams whose
// appends interleave in allocation order, the §6 regime driven by a real
// operation log instead of synthetic churn. Objects must exist before
// replace/delete/get events reference them (Replace creates when
// absent, as the safe-write protocol allows).
func Replay(ctx context.Context, store blob.Store, sources ...*Source) (Result, error) {
	exec := workload.NewExecutor(store).WithContext(ctx)
	specs := make([]workload.Stream, len(sources))
	for i, src := range sources {
		// Trace sources draw no randomness; the RNG is the executor
		// contract's, not the trace's.
		specs[i] = workload.Stream{Source: src, RNG: rand.New(rand.NewSource(int64(i) + 1))}
	}
	rr, err := exec.Run(specs, workload.RunOptions{})
	total := rr.Total()
	res := Result{
		Ops:          total.Ops(),
		Streams:      len(sources),
		BytesWritten: total.BytesWritten,
		BytesRead:    total.BytesRead,
		Seconds:      rr.Seconds,
		WriteMBps:    units.MBps(total.BytesWritten, rr.Seconds),
		StorageAge:   exec.Tracker().Age(),
	}
	if err != nil {
		return res, fmt.Errorf("trace: %w", err)
	}
	return res, nil
}

// Analysis is what a trace implies without executing it.
type Analysis struct {
	Ops          int
	Puts         int
	Replaces     int
	Deletes      int
	Gets         int
	RangedGets   int
	LiveObjects  int
	LiveBytes    int64
	RetiredBytes int64
	// StorageAge is computed from the allocation rate alone, per §4.4:
	// "Given an application trace, storage age can be computed from the
	// data allocation rate."
	StorageAge float64
	// MeanObjectBytes is the mean live object size at trace end.
	MeanObjectBytes int64
}

// Analyze computes trace statistics and the storage age the trace would
// produce, without touching any store.
func Analyze(ops []Op) (Analysis, error) {
	var a Analysis
	live := map[string]int64{}
	for i, op := range ops {
		a.Ops++
		switch op.Kind {
		case workload.OpCreate:
			if _, ok := live[op.Key]; ok {
				return a, fmt.Errorf("trace: op %d puts existing key %s", i, op.Key)
			}
			live[op.Key] = op.Size
			a.Puts++
		case workload.OpReplace:
			if old, ok := live[op.Key]; ok {
				a.RetiredBytes += old
			}
			live[op.Key] = op.Size
			a.Replaces++
		case workload.OpDelete:
			old, ok := live[op.Key]
			if !ok {
				return a, fmt.Errorf("trace: op %d deletes missing key %s", i, op.Key)
			}
			a.RetiredBytes += old
			delete(live, op.Key)
			a.Deletes++
		case workload.OpRead:
			size, ok := live[op.Key]
			if !ok {
				return a, fmt.Errorf("trace: op %d reads missing key %s", i, op.Key)
			}
			if op.Len == 0 {
				a.Gets++
				break
			}
			if op.Off < 0 || op.Len < 0 || op.Off+op.Len > size {
				return a, fmt.Errorf("trace: op %d range [%d,%d) outside %s (%d bytes)",
					i, op.Off, op.Off+op.Len, op.Key, size)
			}
			a.RangedGets++
		}
	}
	a.LiveObjects = len(live)
	for _, s := range live {
		a.LiveBytes += s
	}
	if a.LiveBytes > 0 {
		a.StorageAge = float64(a.RetiredBytes) / float64(a.LiveBytes)
	}
	if a.LiveObjects > 0 {
		a.MeanObjectBytes = a.LiveBytes / int64(a.LiveObjects)
	}
	return a, nil
}

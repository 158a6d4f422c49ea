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

// Kind enumerates trace event types.
type Kind int

const (
	// Put creates a new object.
	Put Kind = iota
	// Replace safe-writes an existing (or new) object.
	Replace
	// Delete removes an object.
	Delete
	// Get reads a whole object.
	Get
	// GetRange reads the byte range [Off, Off+Len) of an object — what
	// the cache layer's ranged reads actually issue.
	GetRange
)

var kindNames = [...]string{"put", "replace", "delete", "get", "getrange"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is one trace event.
type Op struct {
	Kind Kind
	Key  string
	Size int64 // bytes; meaningful for Put and Replace
	// Off and Len bound a GetRange read.
	Off, Len int64
	// Stream tags the op with the writer stream that issued it (the v2
	// trace format's optional trailing column). 0 means untagged.
	Stream int
}

// Format renders the op in trace format.
func (o Op) Format() string {
	var s string
	switch o.Kind {
	case Put, Replace:
		s = fmt.Sprintf("%s %s %d", o.Kind, o.Key, o.Size)
	case GetRange:
		s = fmt.Sprintf("%s %s %d %d", o.Kind, o.Key, o.Off, o.Len)
	default:
		s = fmt.Sprintf("%s %s", o.Kind, o.Key)
	}
	if o.Stream > 0 {
		s += " " + strconv.Itoa(o.Stream)
	}
	return s
}

// workloadOp converts the trace event into the executor's typed op.
func (o Op) workloadOp() workload.Op {
	switch o.Kind {
	case Put:
		return workload.Op{Kind: workload.OpCreate, Key: o.Key, Size: o.Size}
	case Replace:
		return workload.Op{Kind: workload.OpReplace, Key: o.Key, Size: o.Size}
	case Delete:
		return workload.Op{Kind: workload.OpDelete, Key: o.Key}
	case GetRange:
		return workload.Op{Kind: workload.OpRead, Key: o.Key, Off: o.Off, Len: o.Len}
	default:
		return workload.Op{Kind: workload.OpRead, Key: o.Key}
	}
}

// parseStream interprets the optional trailing stream column: fields
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
		op = Op{Key: fields[1], Size: size}
		if fields[0] == "put" {
			op.Kind = Put
		} else {
			op.Kind = Replace
		}
		rest = fields[3:]
	case "delete", "get":
		if len(fields) < 2 {
			return Op{}, false, fmt.Errorf("trace: %q needs a key", line)
		}
		op = Op{Key: fields[1]}
		if fields[0] == "delete" {
			op.Kind = Delete
		} else {
			op.Kind = Get
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
		op = Op{Kind: GetRange, Key: fields[1], Off: off, Len: length}
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

// Read parses a whole trace into memory. For logs too large to
// materialize, stream them with NewSource instead.
func Read(r io.Reader) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		op, ok, err := ParseOp(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ok {
			ops = append(ops, op)
		}
	}
	if err := sc.Err(); err != nil {
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
	name string
	next func() (Op, bool, error)
	// keep emits only matching ops; nil keeps everything.
	keep func(Op) bool
	err  error
}

// NewSource streams every op from r.
func NewSource(r io.Reader) *Source {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	lineNo := 0
	return &Source{
		name: "trace",
		next: func() (Op, bool, error) {
			for sc.Scan() {
				lineNo++
				op, ok, err := ParseOp(sc.Text())
				if err != nil {
					return Op{}, false, fmt.Errorf("line %d: %w", lineNo, err)
				}
				if !ok {
					continue
				}
				return op, true, nil
			}
			return Op{}, false, sc.Err()
		},
	}
}

// OpsSources returns one in-memory Source per op slice: a whole log for
// a sequential replay, or the streams of a Partition for a concurrent
// one.
func OpsSources(streams ...[]Op) []*Source {
	out := make([]*Source, len(streams))
	for n, ops := range streams {
		i := 0
		out[n] = &Source{
			name: "trace",
			next: func() (Op, bool, error) {
				if i >= len(ops) {
					return Op{}, false, nil
				}
				op := ops[i]
				i++
				return op, true, nil
			},
		}
	}
	return out
}

// OnlyStream restricts the source to ops tagged with the given stream
// id (v2 traces), so k Sources over k readers of the same log replay a
// multi-stream recording with its original partitioning in constant
// memory. Returns the source for chaining.
func (s *Source) OnlyStream(id int) *Source {
	s.keep = func(op Op) bool { return op.Stream == id }
	s.name = fmt.Sprintf("trace stream %d", id)
	return s
}

// Name implements workload.Source.
func (s *Source) Name() string { return s.name }

// Err reports the parse or I/O failure that ended the stream, if any.
func (s *Source) Err() error { return s.err }

// Next implements workload.Source. Trace replay consumes no randomness:
// the op sequence is the trace itself.
func (s *Source) Next(*rand.Rand) (workload.Op, bool) {
	if s.err != nil {
		return workload.Op{}, false
	}
	for {
		op, ok, err := s.next()
		if err != nil {
			s.err = err
			return workload.Op{}, false
		}
		if !ok {
			return workload.Op{}, false
		}
		if s.keep != nil && !s.keep(op) {
			continue
		}
		return op.workloadOp(), true
	}
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
	return &recordingWriter{Writer: w, rec: r, op: Op{Kind: Put, Key: key, Size: size}}, nil
}

// Replace implements blob.Store; the replace is recorded at commit.
func (r *Recorder) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	w, err := r.Store.Replace(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &recordingWriter{Writer: w, rec: r, op: Op{Kind: Replace, Key: key, Size: size}}, nil
}

// Delete implements blob.Store.
func (r *Recorder) Delete(ctx context.Context, key string) error {
	if err := r.Store.Delete(ctx, key); err != nil {
		return err
	}
	r.record(Op{Kind: Delete, Key: key})
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
	r.rec.record(Op{Kind: Get, Key: r.key})
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
	r.rec.record(Op{Kind: GetRange, Key: r.key, Off: off, Len: length})
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
		case Put:
			if _, ok := live[op.Key]; ok {
				return a, fmt.Errorf("trace: op %d puts existing key %s", i, op.Key)
			}
			live[op.Key] = op.Size
			a.Puts++
		case Replace:
			if old, ok := live[op.Key]; ok {
				a.RetiredBytes += old
			}
			live[op.Key] = op.Size
			a.Replaces++
		case Delete:
			old, ok := live[op.Key]
			if !ok {
				return a, fmt.Errorf("trace: op %d deletes missing key %s", i, op.Key)
			}
			a.RetiredBytes += old
			delete(live, op.Key)
			a.Deletes++
		case Get:
			if _, ok := live[op.Key]; !ok {
				return a, fmt.Errorf("trace: op %d reads missing key %s", i, op.Key)
			}
			a.Gets++
		case GetRange:
			size, ok := live[op.Key]
			if !ok {
				return a, fmt.Errorf("trace: op %d reads missing key %s", i, op.Key)
			}
			if op.Off < 0 || op.Len <= 0 || op.Off+op.Len > size {
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

package trace

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func newFS(capacity int64) blob.Store {
	s, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		panic(err)
	}
	return s
}

func newDBr(capacity int64) blob.Store {
	s, err := core.NewDBStore(vclock.New(),
		blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		panic(err)
	}
	return s
}

// parse reads a hand-written trace, one op per line.
func parse(t *testing.T, lines ...string) []Op {
	t.Helper()
	ops, err := Read(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestParseAndFormatRoundTrip(t *testing.T) {
	cases := []struct {
		line string
		op   Op
	}{
		{"put a 1024", Op{Op: workload.Op{Kind: workload.OpCreate, Key: "a", Size: 1024}}},
		{"replace a 2048", Op{Op: workload.Op{Kind: workload.OpReplace, Key: "a", Size: 2048}}},
		{"get a", Op{Op: workload.Op{Kind: workload.OpRead, Key: "a"}}},
		{"getrange a 512 1024", Op{Op: workload.Op{Kind: workload.OpRead, Key: "a", Off: 512, Len: 1024}}},
		{"put b 4096 3", Op{Op: workload.Op{Kind: workload.OpCreate, Key: "b", Size: 4096}, Stream: 3}},
		{"getrange b 0 100 12", Op{Op: workload.Op{Kind: workload.OpRead, Key: "b", Len: 100}, Stream: 12}},
		{"delete a", Op{Op: workload.Op{Kind: workload.OpDelete, Key: "a"}}},
	}
	var ops []Op
	for _, c := range cases {
		got, ok, err := ParseOp(c.line)
		if err != nil || !ok || got != c.op {
			t.Fatalf("ParseOp(%q) = %#v, %v, %v; want %#v", c.line, got, ok, err, c.op)
		}
		if f := c.op.Format(); f != c.line {
			t.Fatalf("Format(%#v) = %q, want %q", c.op, f, c.line)
		}
		ops = append(ops, c.op)
	}
	var buf bytes.Buffer
	if err := Write(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops", len(got))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %#v != %#v", i, got[i], ops[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nput a 100\n  \n# trailing\nget a\n"
	ops, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("got %d ops", len(ops))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"put a",           // missing size
		"put a -5",        // negative size
		"put a xyz",       // non-numeric
		"delete",          // missing key
		"frobnicate a 10", // unknown op
		"getrange a 10",   // missing length
		"getrange a -1 5", // negative offset
		"getrange a 0 0",  // empty range
		"put a 10 0",      // stream ids are positive
		"put a 10 -2",     // negative stream
		"get a 1 extra",   // trailing junk
		"put a 10 1 junk", // trailing junk after stream
	} {
		if _, ok, err := ParseOp(bad); err == nil && ok {
			t.Errorf("ParseOp(%q) accepted", bad)
		}
	}
}

func TestRecorderCapturesWorkload(t *testing.T) {
	rec := NewRecorder(newFS(128 * units.MB))
	runner := workload.NewRunner(rec, workload.Constant{Size: 512 * units.KB}, 3)
	if _, err := runner.BulkLoad(0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ChurnToAge(1, workload.ChurnOptions{ReadsPerWrite: 1}); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatal("nothing recorded")
	}
	var puts, replaces, gets int
	for _, op := range ops {
		switch op.Kind {
		case workload.OpCreate:
			puts++
		case workload.OpReplace:
			replaces++
		case workload.OpRead:
			gets++
		}
	}
	if puts == 0 || replaces == 0 || gets == 0 {
		t.Fatalf("incomplete recording: %d puts %d replaces %d gets", puts, replaces, gets)
	}
	// blob.As sees the capabilities of the store beneath the recorder.
	if _, ok := blob.As[blob.Rewriter](rec); !ok {
		t.Error("blob.As[blob.Rewriter] does not find the core store beneath a Recorder")
	}
	if _, ok := blob.CommitStatsOf(rec); !ok {
		t.Error("blob.CommitStatsOf does not find the core store beneath a Recorder")
	}
}

// TestReplayReproducesStateAndAge is the core trace-based-generation
// property: replaying a recorded trace onto a fresh store of EITHER
// backend reproduces the live object set and the storage age — §4.4's
// claim that storage age is comparable across systems.
func TestReplayReproducesStateAndAge(t *testing.T) {
	rec := NewRecorder(newFS(128 * units.MB))
	runner := workload.NewRunner(rec, workload.UniformAround(512*units.KB), 7)
	if _, err := runner.BulkLoad(0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ChurnToAge(2, workload.ChurnOptions{}); err != nil {
		t.Fatal(err)
	}
	wantAge := runner.Tracker().Age()
	wantCount := rec.ObjectCount()
	wantLive := rec.LiveBytes()

	for _, fresh := range []blob.Store{newFS(128 * units.MB), newDBr(128 * units.MB)} {
		res, err := Replay(context.Background(), fresh, OpsSources(rec.Ops())...)
		if err != nil {
			t.Fatalf("%s replay: %v", fresh.Name(), err)
		}
		if fresh.ObjectCount() != wantCount {
			t.Fatalf("%s: %d objects, want %d", fresh.Name(), fresh.ObjectCount(), wantCount)
		}
		if fresh.LiveBytes() != wantLive {
			t.Fatalf("%s: %d live bytes, want %d", fresh.Name(), fresh.LiveBytes(), wantLive)
		}
		if diff := res.StorageAge - wantAge; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: replay age %.4f, want %.4f", fresh.Name(), res.StorageAge, wantAge)
		}
		// Every object readable.
		for _, k := range fresh.Keys() {
			if _, _, err := blob.Get(context.Background(), fresh, k); err != nil {
				t.Fatalf("%s: %v", fresh.Name(), err)
			}
		}
	}
}

// TestAnalyzeMatchesExecution checks §4.4: storage age computed from the
// trace alone equals the age measured during execution.
func TestAnalyzeMatchesExecution(t *testing.T) {
	rec := NewRecorder(newFS(128 * units.MB))
	runner := workload.NewRunner(rec, workload.Constant{Size: 1 * units.MB}, 5)
	if _, err := runner.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ChurnToAge(3, workload.ChurnOptions{}); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.StorageAge, runner.Tracker().Age(); got != want {
		t.Fatalf("analyzed age %.4f != executed age %.4f", got, want)
	}
	if a.LiveObjects != rec.ObjectCount() {
		t.Fatalf("analyzed %d live, store has %d", a.LiveObjects, rec.ObjectCount())
	}
	if a.LiveBytes != rec.LiveBytes() {
		t.Fatalf("analyzed %d live bytes, store has %d", a.LiveBytes, rec.LiveBytes())
	}
}

func TestAnalyzeRejectsBrokenTraces(t *testing.T) {
	cases := [][]Op{
		parse(t, "put a 10", "put a 10"),
		parse(t, "delete ghost"),
		parse(t, "get ghost"),
		parse(t, "put a 10", "getrange a 5 6"),
	}
	for i, ops := range cases {
		if _, err := Analyze(ops); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReplayFailsCleanlyOnBadTrace(t *testing.T) {
	repo := newFS(64 * units.MB)
	_, err := Replay(context.Background(), repo, OpsSources(parse(t, "delete ghost"))...)
	if err == nil {
		t.Fatal("replay of broken trace succeeded")
	}
}

func TestReplayGroupedDeletePattern(t *testing.T) {
	// A hand-written trace with §3.2's grouped deallocation.
	var ops []Op
	for album := 0; album < 3; album++ {
		for p := 0; p < 10; p++ {
			ops = append(ops, Op{Op: workload.Op{Kind: workload.OpCreate, Key: key(album, p), Size: 256 * units.KB}})
		}
	}
	for p := 0; p < 10; p++ {
		ops = append(ops, Op{Op: workload.Op{Kind: workload.OpDelete, Key: key(1, p)}})
	}
	repo := newFS(64 * units.MB)
	res, err := Replay(context.Background(), repo, OpsSources(ops)...)
	if err != nil {
		t.Fatal(err)
	}
	if repo.ObjectCount() != 20 {
		t.Fatalf("count = %d", repo.ObjectCount())
	}
	// 10 deleted of 20 live: age 0.5.
	if res.StorageAge != 0.5 {
		t.Fatalf("age = %g", res.StorageAge)
	}
}

func key(album, p int) string {
	return "album" + string(rune('A'+album)) + "/" + string(rune('0'+p))
}

// TestRecorderCapturesRangedReads pins the satellite fix: ReadAt
// through a Recorder lands in the trace as a getrange op with the exact
// bounds the reader saw, and the recorded trace replays cleanly.
func TestRecorderCapturesRangedReads(t *testing.T) {
	ctx := context.Background()
	rec := NewRecorder(newFS(64 * units.MB))
	if err := blob.Put(ctx, rec, "obj", 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	r, err := rec.Open(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(128*units.KB, 256*units.KB); err != nil {
		t.Fatal(err)
	}
	// A failed ranged read must not be recorded.
	if _, err := r.ReadAt(900*units.KB, 200*units.KB); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	r.Close()

	ops := rec.Ops()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops, want put+getrange", len(ops))
	}
	want := Op{Op: workload.Op{Kind: workload.OpRead, Key: "obj", Off: 128 * units.KB, Len: 256 * units.KB}}
	if ops[1] != want {
		t.Fatalf("recorded %#v, want %#v", ops[1], want)
	}

	a, err := Analyze(ops)
	if err != nil {
		t.Fatal(err)
	}
	if a.RangedGets != 1 {
		t.Fatalf("Analyze counted %d ranged gets", a.RangedGets)
	}
	res, err := Replay(ctx, newDBr(64*units.MB), OpsSources(ops)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead != 256*units.KB {
		t.Fatalf("replay read %d bytes, want the recorded range", res.BytesRead)
	}
}

// TestRecordReplayDeterminism is the satellite acceptance test: a
// seeded churn+read workload recorded through trace.Recorder and
// replayed through the shared Executor at k=1 reproduces the original
// run exactly — fragments/object, live bytes, and op counts.
func TestRecordReplayDeterminism(t *testing.T) {
	store := newFS(128 * units.MB)
	rec := NewRecorder(store)
	runner := workload.NewRunner(rec, workload.UniformAround(1*units.MB), 11)
	if _, err := runner.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	churn, err := runner.ChurnToAge(2, workload.ChurnOptions{ReadsPerWrite: 1})
	if err != nil {
		t.Fatal(err)
	}
	read, err := runner.MeasureRead(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	wantFrags := frag.Analyze(store).MeanFragments()
	wantLive := store.LiveBytes()
	wantCount := store.ObjectCount()
	wantAge := runner.Tracker().Age()

	fresh := newFS(128 * units.MB)
	res, err := Replay(context.Background(), fresh, OpsSources(Partition(ops, 1)...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(ops) {
		t.Fatalf("replayed %d ops, recorded %d", res.Ops, len(ops))
	}
	if gotReads := churn.Ops + read.Ops; res.Ops <= gotReads {
		t.Fatalf("op accounting off: replay %d ops vs churn+read %d", res.Ops, gotReads)
	}
	if got := frag.Analyze(fresh).MeanFragments(); got != wantFrags {
		t.Fatalf("replayed layout %.4f frags/obj, original %.4f", got, wantFrags)
	}
	if fresh.LiveBytes() != wantLive {
		t.Fatalf("replayed %d live bytes, original %d", fresh.LiveBytes(), wantLive)
	}
	if fresh.ObjectCount() != wantCount {
		t.Fatalf("replayed %d objects, original %d", fresh.ObjectCount(), wantCount)
	}
	if diff := res.StorageAge - wantAge; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("replayed age %.6f, original %.6f", res.StorageAge, wantAge)
	}
}

// TestPartition pins the replay-partitioning contract: per-key op order
// survives any k, k=1 is the identity, and v2 stream tags override the
// hash routing.
func TestPartition(t *testing.T) {
	var ops []Op
	for i := 0; i < 8; i++ {
		ops = append(ops, parse(t,
			fmt.Sprintf("put k%d 100", i),
			fmt.Sprintf("replace k%d 200", i),
			fmt.Sprintf("delete k%d", i))...)
	}
	if got := Partition(ops, 1); len(got) != 1 || len(got[0]) != len(ops) {
		t.Fatalf("k=1 partition reshaped the trace")
	} else {
		for i := range ops {
			if got[0][i] != ops[i] {
				t.Fatalf("k=1 partition reordered op %d", i)
			}
		}
	}
	streams := Partition(ops, 3)
	total := 0
	for _, s := range streams {
		total += len(s)
		perKey := map[string]int{}
		for _, op := range s {
			// Ops for one key appear in put < replace < delete order, and
			// never split across streams.
			switch op.Kind {
			case workload.OpCreate:
				if perKey[op.Key] != 0 {
					t.Fatalf("put out of order for %s", op.Key)
				}
			case workload.OpReplace:
				if perKey[op.Key] != 1 {
					t.Fatalf("replace out of order for %s", op.Key)
				}
			case workload.OpDelete:
				if perKey[op.Key] != 2 {
					t.Fatalf("delete out of order for %s", op.Key)
				}
			}
			perKey[op.Key]++
		}
		for k, n := range perKey {
			if n != 3 {
				t.Fatalf("key %s split across streams (%d ops here)", k, n)
			}
		}
	}
	if total != len(ops) {
		t.Fatalf("partition dropped ops: %d of %d", total, len(ops))
	}

	// A fully tagged trace routes by id, not hash.
	tagged := parse(t, "put x 10 1", "put y 10 2")
	byTag := Partition(tagged, 2)
	if len(byTag[1]) != 1 || byTag[1][0].Key != "x" {
		t.Fatalf("stream 1 ops routed to %#v", byTag)
	}
	if len(byTag[0]) != 1 || byTag[0][0].Key != "y" {
		t.Fatalf("stream 2 (mod 2 = 0) ops routed to %#v", byTag)
	}

	// A MIXED trace (some ops tagged, some not) must fall back to
	// per-key hash routing for every op: otherwise a tagged put and an
	// untagged delete of the same key could land on different concurrent
	// streams and replay out of order.
	mixed := parse(t, "put a 10 2", "delete a")
	for k := 2; k <= 5; k++ {
		parts := Partition(mixed, k)
		for _, s := range parts {
			if len(s) == 1 {
				t.Fatalf("k=%d: mixed-tag ops for one key split across streams", k)
			}
			if len(s) == 2 && (s[0].Kind != workload.OpCreate || s[1].Kind != workload.OpDelete) {
				t.Fatalf("k=%d: per-key order lost: %#v", k, s)
			}
		}
	}
}

// TestConcurrentReplayPreservesState pins the k>1 replay path: any
// partitioning replays the full op set — same live bytes, same object
// count, same storage age — only the allocation ORDER (and therefore
// the physical layout) may differ.
func TestConcurrentReplayPreservesState(t *testing.T) {
	rec := NewRecorder(newFS(128 * units.MB))
	runner := workload.NewRunner(rec, workload.Constant{Size: 1 * units.MB}, 13)
	if _, err := runner.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ChurnToAge(2, workload.ChurnOptions{}); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	wantLive := rec.LiveBytes()
	wantCount := rec.ObjectCount()
	wantAge := runner.Tracker().Age()

	for _, k := range []int{2, 8} {
		fresh := newDBr(128 * units.MB)
		res, err := Replay(context.Background(), fresh, OpsSources(Partition(ops, k)...)...)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Streams != k || res.Ops != len(ops) {
			t.Fatalf("k=%d: replayed %d ops on %d streams", k, res.Ops, res.Streams)
		}
		if fresh.LiveBytes() != wantLive || fresh.ObjectCount() != wantCount {
			t.Fatalf("k=%d: state diverged: %d bytes/%d objects, want %d/%d",
				k, fresh.LiveBytes(), fresh.ObjectCount(), wantLive, wantCount)
		}
		if diff := res.StorageAge - wantAge; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("k=%d: age %.6f, want %.6f", k, res.StorageAge, wantAge)
		}
	}
}

// TestSourceStreamsWithoutMaterializing pins the streaming contract: a
// Source over an io.Reader replays a log it never holds in memory, and
// a parse error mid-stream surfaces through the executor as an error,
// not a silent truncation.
func TestSourceStreamsWithoutMaterializing(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&buf, "put k%02d %d\n", i, 256*units.KB)
	}
	store := newFS(64 * units.MB)
	res, err := Replay(context.Background(), store, NewSource(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 50 || store.ObjectCount() != 50 {
		t.Fatalf("streamed replay: %d ops, %d objects", res.Ops, store.ObjectCount())
	}

	bad := strings.NewReader("put a 1024\nput b broken\nput c 1024\n")
	if _, err := Replay(context.Background(), newFS(64*units.MB), NewSource(bad)); err == nil {
		t.Fatal("mid-stream parse error swallowed")
	}
}

// FuzzParseOp holds the v2 line parser to its contract: no input
// panics; a line it refuses is blank, a comment or an error; a line it
// accepts names a valid op (positive size, offset ≥ 0, positive range
// length, stream id ≥ 0) and formats back to the same fields, numbers
// compared as numbers, so a zero or negative stream id, a trailing
// field or a number with junk in it cannot slip through; and Format of
// that op parses back to the same op. The seed corpus in
// testdata/fuzz/FuzzParseOp holds one line of each kind, with and
// without a stream tag, and the malformed lines of TestParseErrors.
func FuzzParseOp(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		op, ok, err := ParseOp(line)
		if !ok {
			trimmed := strings.TrimSpace(line)
			if err == nil && trimmed != "" && !strings.HasPrefix(trimmed, "#") {
				t.Fatalf("ParseOp(%q) refused the line without an error", line)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseOp(%q) accepted the line with error %v", line, err)
		}
		valid := op.Key != "" && op.Stream >= 0
		switch op.Kind {
		case workload.OpCreate, workload.OpReplace:
			valid = valid && op.Size > 0
		case workload.OpRead:
			valid = valid && op.Off >= 0 && op.Len >= 0 && (op.Len > 0 || op.Off == 0)
		case workload.OpDelete:
		default:
			valid = false
		}
		if !valid {
			t.Fatalf("ParseOp(%q) accepted an invalid op %#v", line, op)
		}
		in, out := strings.Fields(line), strings.Fields(op.Format())
		same := len(in) == len(out) && in[0] == out[0] && in[1] == out[1]
		for i := 2; same && i < len(in); i++ {
			n, err := strconv.ParseInt(in[i], 10, 64)
			same = err == nil && strconv.FormatInt(n, 10) == out[i]
		}
		if !same {
			t.Fatalf("ParseOp(%q) = %#v, which formats as %q", line, op, op.Format())
		}
		back, ok, err := ParseOp(op.Format())
		if !ok || err != nil || back != op {
			t.Fatalf("Format(%#v) = %q re-parses to %#v, %v, %v", op, op.Format(), back, ok, err)
		}
	})
}

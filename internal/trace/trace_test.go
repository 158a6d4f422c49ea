package trace

import (
	"bytes"
	"context"
	"fmt"
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

func TestParseAndFormatRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: Put, Key: "a", Size: 1024},
		{Kind: Replace, Key: "a", Size: 2048},
		{Kind: Get, Key: "a"},
		{Kind: GetRange, Key: "a", Off: 512, Len: 1024},
		{Kind: Put, Key: "b", Size: 4096, Stream: 3},
		{Kind: GetRange, Key: "b", Off: 0, Len: 100, Stream: 12},
		{Kind: Delete, Key: "a"},
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
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
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
		case Put:
			puts++
		case Replace:
			replaces++
		case Get:
			gets++
		}
	}
	if puts == 0 || replaces == 0 || gets == 0 {
		t.Fatalf("incomplete recording: %d puts %d replaces %d gets", puts, replaces, gets)
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
		{{Kind: Put, Key: "a", Size: 10}, {Kind: Put, Key: "a", Size: 10}},
		{{Kind: Delete, Key: "ghost"}},
		{{Kind: Get, Key: "ghost"}},
	}
	for i, ops := range cases {
		if _, err := Analyze(ops); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReplayFailsCleanlyOnBadTrace(t *testing.T) {
	repo := newFS(64 * units.MB)
	_, err := Replay(context.Background(), repo, OpsSources([]Op{{Kind: Delete, Key: "ghost"}})...)
	if err == nil {
		t.Fatal("replay of broken trace succeeded")
	}
}

func TestReplayGroupedDeletePattern(t *testing.T) {
	// A hand-written trace with §3.2's grouped deallocation.
	var ops []Op
	for album := 0; album < 3; album++ {
		for p := 0; p < 10; p++ {
			ops = append(ops, Op{Kind: Put, Key: key(album, p), Size: 256 * units.KB})
		}
	}
	for p := 0; p < 10; p++ {
		ops = append(ops, Op{Kind: Delete, Key: key(1, p)})
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
	want := Op{Kind: GetRange, Key: "obj", Off: 128 * units.KB, Len: 256 * units.KB}
	if ops[1] != want {
		t.Fatalf("recorded %+v, want %+v", ops[1], want)
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
	read, err := runner.MeasureReadThroughput(40)
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
		k := fmt.Sprintf("k%d", i)
		ops = append(ops,
			Op{Kind: Put, Key: k, Size: 100},
			Op{Kind: Replace, Key: k, Size: 200},
			Op{Kind: Delete, Key: k})
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
			case Put:
				if perKey[op.Key] != 0 {
					t.Fatalf("put out of order for %s", op.Key)
				}
			case Replace:
				if perKey[op.Key] != 1 {
					t.Fatalf("replace out of order for %s", op.Key)
				}
			case Delete:
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
	tagged := []Op{
		{Kind: Put, Key: "x", Size: 10, Stream: 1},
		{Kind: Put, Key: "y", Size: 10, Stream: 2},
	}
	byTag := Partition(tagged, 2)
	if len(byTag[1]) != 1 || byTag[1][0].Key != "x" {
		t.Fatalf("stream 1 ops routed to %+v", byTag)
	}
	if len(byTag[0]) != 1 || byTag[0][0].Key != "y" {
		t.Fatalf("stream 2 (mod 2 = 0) ops routed to %+v", byTag)
	}

	// A MIXED trace (some ops tagged, some not) must fall back to
	// per-key hash routing for every op: otherwise a tagged put and an
	// untagged delete of the same key could land on different concurrent
	// streams and replay out of order.
	mixed := []Op{
		{Kind: Put, Key: "a", Size: 10, Stream: 2},
		{Kind: Delete, Key: "a"},
	}
	for k := 2; k <= 5; k++ {
		parts := Partition(mixed, k)
		for _, s := range parts {
			if len(s) == 1 {
				t.Fatalf("k=%d: mixed-tag ops for one key split across streams", k)
			}
			if len(s) == 2 && (s[0].Kind != Put || s[1].Kind != Delete) {
				t.Fatalf("k=%d: per-key order lost: %+v", k, s)
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

// TestSourceOnlyStream pins the v2 per-stream filter: k Sources over k
// readings of one tagged log replay only their own stream's ops.
func TestSourceOnlyStream(t *testing.T) {
	log := "put a 1024 1\nput b 1024 2\nreplace a 2048 1\nget b 2\n"
	src := NewSource(strings.NewReader(log)).OnlyStream(1)
	var kinds []workload.OpKind
	for {
		op, ok := src.Next(nil)
		if !ok {
			break
		}
		if op.Key != "a" {
			t.Fatalf("stream 1 saw key %s", op.Key)
		}
		kinds = append(kinds, op.Kind)
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if len(kinds) != 2 || kinds[0] != workload.OpCreate || kinds[1] != workload.OpReplace {
		t.Fatalf("stream 1 ops: %v", kinds)
	}
}

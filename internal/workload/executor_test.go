package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestExecutorMixedSources pins the tentpole claim: one Run can drive a
// heterogeneous mix of Sources — a churn stream and a Zipf read stream
// here — against one store, with per-stream accounting kept apart.
func TestExecutorMixedSources(t *testing.T) {
	store := newFS(128 * units.MB)
	r := NewRunner(store, Constant{Size: 1 * units.MB}, 1)
	if _, err := r.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	exec := r.Executor()

	churn := &ChurnSource{
		Keys:      r.Keys(),
		Dist:      Constant{Size: 1 * units.MB},
		TargetAge: 1,
		Age:       exec.Tracker().Age,
	}
	pop, err := NewZipfPopularity(1.3)
	if err != nil {
		t.Fatal(err)
	}
	reads := &ReadSource{Keys: r.Keys(), Samples: 30, Popularity: pop}
	rr, err := exec.Run([]Stream{
		{Source: churn, RNG: rand.New(rand.NewSource(2))},
		{Source: reads, RNG: rand.New(rand.NewSource(3))},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Streams) != 2 {
		t.Fatalf("accounting for %d streams", len(rr.Streams))
	}
	w, rd := rr.Streams[0], rr.Streams[1]
	if w.Replaces == 0 || w.Reads != 0 || w.BytesWritten == 0 {
		t.Fatalf("churn stream counts: %+v", w)
	}
	if rd.Reads != 30 || rd.BytesWritten != 0 || rd.BytesRead != 30*units.MB {
		t.Fatalf("read stream counts: %+v", rd)
	}
	if exec.Tracker().Age() < 1 {
		t.Fatalf("mixed run stopped at age %.2f", exec.Tracker().Age())
	}
	total := rr.Total()
	if total.Ops() != w.Ops()+rd.Ops() {
		t.Fatal("Total does not sum streams")
	}
	if rr.Seconds <= 0 {
		t.Fatal("no virtual time charged")
	}
}

// failingSource always emits a read of a missing key.
type failingSource struct{ emitted int }

func (s *failingSource) Name() string { return "failing" }
func (s *failingSource) Next(*rand.Rand) (Op, bool) {
	if s.emitted > 0 {
		return Op{}, false
	}
	s.emitted++
	return Op{Kind: OpRead, Key: "ghost"}, true
}

// TestExecutorStreamErrorDoesNotCancelSiblings pins the k-writers
// semantics: one stream failing leaves the others running to their own
// completion, and the error arrives wrapped with the stream id.
func TestExecutorStreamErrorDoesNotCancelSiblings(t *testing.T) {
	store := newFS(128 * units.MB)
	exec := NewExecutor(store)
	budget := NewByteBudget(16 * units.MB)
	n := 0
	load := &LoadSource{
		Dist:   Constant{Size: 1 * units.MB},
		Budget: budget,
		Key:    func() string { n++; return fmt.Sprintf("k%04d", n) },
	}
	rr, err := exec.Run([]Stream{
		{Source: load, RNG: rand.New(rand.NewSource(1))},
		{Source: &failingSource{}, RNG: rand.New(rand.NewSource(2))},
	}, RunOptions{})
	if !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if !strings.Contains(err.Error(), "stream 1") {
		t.Fatalf("error not attributed to its stream: %v", err)
	}
	if got := rr.Streams[0].Creates; got != 16 {
		t.Fatalf("healthy stream loaded %d objects, want 16", got)
	}
}

// TestExecutorRangedReads pins ranged-op execution: OpRead with a range
// touches only the range and charges its length.
func TestExecutorRangedReads(t *testing.T) {
	store := newFS(64 * units.MB)
	ctx := context.Background()
	if err := blob.Put(ctx, store, "obj", 4*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(store)
	ops := []Op{
		{Kind: OpRead, Key: "obj", Off: 1 * units.MB, Len: 2 * units.MB},
		{Kind: OpRead, Key: "obj"},
	}
	i := 0
	src := &sliceSource{ops: ops, i: &i}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1))}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Streams[0].BytesRead; got != 6*units.MB {
		t.Fatalf("read %d bytes, want ranged 2M + whole 4M", got)
	}

	// An out-of-bounds range surfaces the typed sentinel.
	i = 0
	src2 := &sliceSource{ops: []Op{{Kind: OpRead, Key: "obj", Off: 3 * units.MB, Len: 2 * units.MB}}, i: &i}
	if _, err := exec.Run([]Stream{{Source: src2, RNG: rand.New(rand.NewSource(1))}},
		RunOptions{}); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("out-of-range replay = %v, want ErrOutOfRange", err)
	}
}

// sliceSource replays a fixed op slice.
type sliceSource struct {
	ops []Op
	i   *int
}

func (s *sliceSource) Name() string { return "slice" }
func (s *sliceSource) Next(*rand.Rand) (Op, bool) {
	if *s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[*s.i]
	*s.i++
	return op, true
}

// TestExecutorSkipLimit pins the full-store backstop: under
// SkipNoSpace a stream aborts with ErrNoSpaceLeft once SkipLimit
// consecutive writes are refused.
func TestExecutorSkipLimit(t *testing.T) {
	store := newFS(32 * units.MB)
	exec := NewExecutor(store)
	var ops []Op
	for i := 0; i < 10; i++ {
		// Writes that can never fit: every one is refused.
		ops = append(ops, Op{Kind: OpReplace, Key: "big", Size: 64 * units.MB})
	}
	i := 0
	src := &sliceSource{ops: ops, i: &i}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1)), SkipLimit: 3}},
		RunOptions{Errors: SkipNoSpace})
	if !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("err = %v, want ErrNoSpaceLeft", err)
	}
	if got := rr.Streams[0].Skipped; got != 4 {
		t.Fatalf("skipped %d before aborting, want SkipLimit+1 = 4", got)
	}
}

// TestSkipTimeChargedOnlyToALoneStream pins where a refused write's
// virtual time goes under SkipNoSpace: a run of one stream charges
// it to SkippedSeconds; in a run of two, each stream's refusals overlap
// the other's work, so none is charged. Without SkipNoSpace the
// refusal fails the run.
func TestSkipTimeChargedOnlyToALoneStream(t *testing.T) {
	run := func(streams int, opts RunOptions) (RunResult, error) {
		exec := NewExecutor(newFS(32 * units.MB))
		specs := make([]Stream, streams)
		for s := range specs {
			// Writes that can never fit: every one is refused.
			ops := []Op{{Kind: OpReplace, Key: fmt.Sprintf("big%d", s), Size: 64 * units.MB}}
			specs[s] = Stream{Source: &sliceSource{ops: ops, i: new(int)}, RNG: rand.New(rand.NewSource(int64(s)))}
		}
		return exec.Run(specs, opts)
	}
	tolerate := RunOptions{Errors: SkipNoSpace}
	alone, err := run(1, tolerate)
	if err != nil {
		t.Fatal(err)
	}
	if c := alone.Total(); c.Skipped != 1 || c.SkippedSeconds <= 0 || c.SkippedSeconds > alone.Seconds {
		t.Fatalf("one stream: skipped %d, SkippedSeconds %g of %g; want 1 skip charged inside the run",
			c.Skipped, c.SkippedSeconds, alone.Seconds)
	}
	pair, err := run(2, tolerate)
	if err != nil {
		t.Fatal(err)
	}
	if c := pair.Total(); c.Skipped != 2 || c.SkippedSeconds != 0 {
		t.Fatalf("two streams: skipped %d, SkippedSeconds %g; want 2 skips and none charged", c.Skipped, c.SkippedSeconds)
	}
	if _, err := run(1, RunOptions{}); !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("refused write without SkipNoSpace: err = %v, want ErrNoSpaceLeft", err)
	}
}

// refusingStore refuses its first fails Replace calls with err. Each
// refusal burns one virtual second, as a refused safe write pays for its
// allocation attempt.
type refusingStore struct {
	blob.Store
	err          error
	fails, calls int
}

func (s *refusingStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	s.calls++
	if s.calls <= s.fails {
		s.Clock().AdvanceSeconds(1)
		return nil, fmt.Errorf("%w: refused by the test", s.err)
	}
	return s.Store.Replace(ctx, key, size)
}

// observedSource counts what the executor reports back to a source.
type observedSource struct {
	sliceSource
	calls, errs int
}

func (s *observedSource) Observe(_ Op, err error) {
	s.calls++
	if err != nil {
		s.errs++
	}
}

// TestExecutorErrorPolicy runs one stream of four replaces against a
// store that refuses the first few, once per error policy. The source
// must hear of every op it handed out exactly once, after any retries.
func TestExecutorErrorPolicy(t *testing.T) {
	const ops = 4
	cases := []struct {
		name      string
		opts      RunOptions
		refuse    error // the error of each refused replace
		fails     int   // how many replace calls the store refuses
		skipLimit int
		wantErr   error // nil: the stream runs to its end
		// What the run did: replace calls the store saw, replaces that
		// committed, skips, and Observe calls with and without errors.
		attempts, replaces, skipped, observed, observedErrs int
	}{
		{name: "FailFastByDefault", refuse: blob.ErrOverloaded, fails: 1, wantErr: blob.ErrOverloaded,
			attempts: 1, observed: 1, observedErrs: 1},
		{name: "SkipNoSpace", opts: RunOptions{Errors: SkipNoSpace}, refuse: blob.ErrNoSpaceLeft, fails: 2, skipLimit: 2,
			attempts: 4, replaces: 2, skipped: 2, observed: 4, observedErrs: 2},
		{name: "SkipNoSpaceStopsPastSkipLimit", opts: RunOptions{Errors: SkipNoSpace}, refuse: blob.ErrNoSpaceLeft, fails: 4, skipLimit: 2,
			wantErr: blob.ErrNoSpaceLeft, attempts: 3, skipped: 3, observed: 3, observedErrs: 3},
		{name: "SkipNoSpaceFailsOnAShed", opts: RunOptions{Errors: SkipNoSpace}, refuse: blob.ErrOverloaded, fails: 1,
			wantErr: blob.ErrOverloaded, attempts: 1, observed: 1, observedErrs: 1},
		{name: "ContinueAndCount", opts: RunOptions{Errors: Continue}, refuse: blob.ErrOverloaded, fails: 2,
			attempts: 4, replaces: 2, observed: 4, observedErrs: 2},
		{name: "RetryShedThenContinue", opts: RunOptions{Errors: RetryShed}, refuse: blob.ErrOverloaded, fails: 3,
			attempts: 7, replaces: 4, observed: 4},
		{name: "RetryShedContinuesPastOtherErrors", opts: RunOptions{Errors: RetryShed}, refuse: blob.ErrNoSpaceLeft, fails: 2,
			attempts: 4, replaces: 2, observed: 4, observedErrs: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := &refusingStore{Store: newFS(32 * units.MB), err: tc.refuse, fails: tc.fails}
			list := make([]Op, ops)
			for i := range list {
				list[i] = Op{Kind: OpReplace, Key: "a", Size: units.MB}
			}
			src := &observedSource{sliceSource: sliceSource{ops: list, i: new(int)}}
			rr, err := NewExecutor(store).Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1)), SkipLimit: tc.skipLimit}}, tc.opts)
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			c := rr.Total()
			if store.calls != tc.attempts || c.Replaces != tc.replaces || c.Skipped != tc.skipped {
				t.Fatalf("%d replace calls, %d committed, %d skipped; want %d, %d, %d",
					store.calls, c.Replaces, c.Skipped, tc.attempts, tc.replaces, tc.skipped)
			}
			if src.calls != tc.observed || src.errs != tc.observedErrs {
				t.Fatalf("Observe called %d times, %d with an error; want %d, %d",
					src.calls, src.errs, tc.observed, tc.observedErrs)
			}
			// A lone stream charges each skip's virtual second, and only skips.
			if c.SkippedSeconds < float64(c.Skipped) || c.Skipped == 0 && c.SkippedSeconds != 0 {
				t.Fatalf("SkippedSeconds = %g for %d skips", c.SkippedSeconds, c.Skipped)
			}
		})
	}
}

// TestExecutorPayload: under WithPayload every write carries its
// size in patterned bytes (byte i is byte(i)), which read back whole, a
// smaller write after a larger one included.
func TestExecutorPayload(t *testing.T) {
	store, err := core.NewFileStore(vclock.New(), blob.WithCapacity(32*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{"a": 20 * units.KB, "b": 4 * units.KB}
	ops := []Op{
		{Kind: OpCreate, Key: "a", Size: 8 * units.KB},
		{Kind: OpReplace, Key: "a", Size: sizes["a"]},
		{Kind: OpCreate, Key: "b", Size: sizes["b"]},
	}
	src := &sliceSource{ops: ops, i: new(int)}
	if _, err := NewExecutor(store).WithPayload(true).Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1))}}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for key, size := range sizes {
		n, data, err := blob.Get(context.Background(), store, key)
		if err != nil || n != size || int64(len(data)) != size {
			t.Fatalf("%s: %d bytes of %d read (%v), want %d", key, len(data), n, err, size)
		}
		for i, b := range data {
			if b != byte(i) {
				t.Fatalf("%s: byte %d = %d, want %d", key, i, b, byte(i))
			}
		}
	}
}

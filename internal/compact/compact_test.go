package compact_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

// newShatteredFS builds a FileStore holding n objects of size bytes and
// pathologically fragments the volume (the §5.3 fixture).
func newShatteredFS(t *testing.T, n int, size int64) *core.FileStore {
	t.Helper()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("obj-%02d", i), size, nil); err != nil {
			t.Fatal(err)
		}
	}
	store.Volume().ShatterFiles(4)
	return store
}

// newShatteredShards builds a shard.Store over shards file stores of
// 256 MB on one clock, holding n objects of 1 MB, and shatters every
// child's volume.
func newShatteredShards(t *testing.T, shards, n int) *shard.Store {
	t.Helper()
	clock := vclock.New()
	children := make([]blob.Store, shards)
	for i := range children {
		c, err := core.NewFileStore(clock,
			blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
	}
	s, err := shard.New(children...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := blob.Put(ctx, s, fmt.Sprintf("obj-%02d", i), units.MB, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, child := range children {
		child.(*core.FileStore).Volume().ShatterFiles(4)
	}
	return s
}

// checkPublished publishes c's metrics and checks that the registry
// holds exactly the seven aggregate names, with Stats()'s values.
func checkPublished(t *testing.T, c *compact.Compactor, duty float64) {
	t.Helper()
	reg := obs.NewRegistry()
	c.PublishMetrics(reg, "compact")
	snap := reg.Snapshot()
	st := c.Stats()
	wantCounters := map[string]int64{
		"compact.scans":        st.Scans,
		"compact.rewrites":     st.Rewrites,
		"compact.skipped_busy": st.SkippedBusy,
		"compact.errors":       st.Errors,
	}
	wantGauges := map[string]float64{
		"compact.rewrite_bytes": float64(st.RewriteBytes),
		"compact.busy_seconds":  st.BusySeconds,
		"compact.duty_cycle":    duty,
	}
	if len(snap.Counters) != len(wantCounters) || len(snap.Gauges) != len(wantGauges) {
		t.Errorf("published counters %v and gauges %v, want exactly %v and %v",
			snap.Counters, snap.Gauges, wantCounters, wantGauges)
	}
	for name, want := range wantCounters {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	for name, want := range wantGauges {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestValidateDuty(t *testing.T) {
	for _, d := range []float64{0, 0.1, 0.5, 1} {
		if err := compact.ValidateDuty(d); err != nil {
			t.Errorf("ValidateDuty(%v) = %v, want nil", d, err)
		}
	}
	for _, d := range []float64{-0.1, 1.01, math.NaN(), math.Inf(1)} {
		if err := compact.ValidateDuty(d); !errors.Is(err, blob.ErrBadOption) {
			t.Errorf("ValidateDuty(%v) = %v, want ErrBadOption", d, err)
		}
	}
}

func TestParseDutyList(t *testing.T) {
	tests := []struct {
		spec string
		want []float64
		ok   bool
	}{
		{"0,0.1,0.5", []float64{0, 0.1, 0.5}, true},
		{" 1 ", []float64{1}, true},
		{"0.25", []float64{0.25}, true},
		{"0, 0.5 ,1", []float64{0, 0.5, 1}, true},
		{"", nil, false},
		{"   ", nil, false},
		{"-0.1", nil, false},
		{"1.5", nil, false},
		{"abc", nil, false},
		{"0,,1", nil, false},
		{"0.1;0.5", nil, false},
	}
	for _, tc := range tests {
		got, err := compact.ParseDutyList(tc.spec)
		if !tc.ok {
			if !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("ParseDutyList(%q) err = %v, want ErrBadOption", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDutyList(%q) = %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseDutyList(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseDutyList(%q)[%d] = %v, want %v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

// noRewrite hides every capability beyond the plain blob.Store methods.
type noRewrite struct{ blob.Store }

func TestNewRejectsUnsupportedAndBadDuty(t *testing.T) {
	store, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compact.New(noRewrite{store}, 0.5); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("New(no-rewrite store) = %v, want ErrUnsupported", err)
	}
	for _, d := range []float64{-1, 2} {
		if _, err := compact.New(store, d); !errors.Is(err, blob.ErrBadOption) {
			t.Fatalf("New(duty %v) = %v, want ErrBadOption", d, err)
		}
	}
}

// TestRunOnceDefragmentsFileStore pins the rewrite stage end to end: a
// shattered volume comes back toward contiguity, the moved bytes are
// counted, and the work charges the shared virtual clock.
func TestRunOnceDefragmentsFileStore(t *testing.T) {
	store := newShatteredFS(t, 12, 2*units.MB)
	before := frag.Analyze(store).MeanFragments()
	if before < 2 {
		t.Fatalf("fixture not fragmented: mean %.2f", before)
	}
	c, err := compact.New(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	clockBefore := store.Clock().Now()
	st := c.RunOnce(context.Background())
	after := frag.Analyze(store).MeanFragments()

	if st.Rewrites == 0 || st.RewriteBytes == 0 {
		t.Fatalf("no rewrites recorded: %v", st)
	}
	if st.BusySeconds <= 0 {
		t.Fatalf("compactor busy time not accounted: %v", st)
	}
	if store.Clock().Now() == clockBefore {
		t.Fatal("rewrites advanced no virtual time (disk cost not charged)")
	}
	if after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
}

// TestRunOnceCompactsDBStore drives the database backend's rewrite path:
// delete-then-overwrite churn leaves objects spanning scattered holes,
// and compaction re-appends them contiguously through the log.
func TestRunOnceCompactsDBStore(t *testing.T) {
	ctx := context.Background()
	store, err := core.NewDBStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
	// 16 × 128 KB, delete every other, refill with 256 KB objects that
	// must span two old holes each.
	for i := 0; i < 16; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("row-%02d", i), 128*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i += 2 {
		if err := store.Delete(ctx, fmt.Sprintf("row-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("big-%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := frag.Analyze(store).MeanFragments()
	if before <= 1 {
		t.Fatalf("fixture not fragmented: mean %.2f", before)
	}
	c, err := compact.New(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := c.RunOnce(ctx)
	after := frag.Analyze(store).MeanFragments()
	if st.Rewrites == 0 {
		t.Fatalf("no rewrites on the db backend: %v", st)
	}
	if after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
	if got := store.Engine().Stats().Compactions; got != st.Rewrites {
		t.Fatalf("engine counted %d compactions, compactor %d", got, st.Rewrites)
	}
}

// TestDutyCycleBoundsBusyTime pins the gate on one goroutine:
// foreground reads advance the shared clock and alternate with CatchUp,
// and after every step the compactor's busy time stays within duty ×
// the virtual time elapsed since it was built, plus one op's cost. Over
// a sharded store the bound is the same: the duty cycle bounds the
// whole compactor, not each shard.
func TestDutyCycleBoundsBusyTime(t *testing.T) {
	const duty = 0.1
	for _, tc := range []struct {
		name           string
		build          func(t *testing.T) blob.Store
		objects, steps int
	}{
		{"file", func(t *testing.T) blob.Store { return newShatteredFS(t, 24, units.MB) }, 24, 400},
		{"4 shards", func(t *testing.T) blob.Store { return newShatteredShards(t, 4, 64) }, 64, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			store := tc.build(t)
			c, err := compact.New(store, duty)
			if err != nil {
				t.Fatal(err)
			}
			w := vclock.StartWatch(store.Clock())
			for i := 0; i < tc.steps; i++ {
				if _, _, err := blob.Get(ctx, store, fmt.Sprintf("obj-%02d", i%tc.objects)); err != nil {
					t.Fatal(err)
				}
				c.CatchUp(ctx)
				st := c.Stats()
				// The gate admits an op while busy <= duty × elapsed, so it
				// can overshoot by at most the op it admitted last; objects
				// are uniform, so twice the mean per-op busy time bounds
				// one op.
				slack := 2 * st.BusySeconds / float64(st.Rewrites+st.SkippedBusy+1)
				if elapsed := w.Seconds(); st.BusySeconds > duty*elapsed+slack {
					t.Fatalf("step %d: busy %.4fs exceeds duty %.2f of elapsed %.4fs (+%.4fs slack)",
						i, st.BusySeconds, duty, elapsed, slack)
				}
			}
			// Fragmented objects remain, so the compactor also used its
			// share: it trails duty × elapsed by less than one op.
			st := c.Stats()
			slack := 2 * st.BusySeconds / float64(st.Rewrites+st.SkippedBusy+1)
			if st.Rewrites == 0 || st.BusySeconds < duty*w.Seconds()-slack {
				t.Fatalf("compactor fell behind its share: %+v over %.4fs elapsed", st, w.Seconds())
			}
		})
	}
}

func TestZeroDutyIsNoOp(t *testing.T) {
	store := newShatteredFS(t, 4, units.MB)
	c, err := compact.New(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.CatchUp(context.Background())
	if st := c.Stats(); st != (compact.Stats{}) {
		t.Fatalf("zero-duty compactor did work: %v", st)
	}
}

// TestCanceledContextDoesNoWork pins cancellation on both entry points:
// under a done context CatchUp and RunOnce return without scanning or
// rewriting anything, and the same compactor works again under a live
// context.
func TestCanceledContextDoesNoWork(t *testing.T) {
	store := newShatteredFS(t, 12, 2*units.MB)
	before := frag.Analyze(store).MeanFragments()
	c, err := compact.New(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.CatchUp(ctx)
	if st := c.RunOnce(ctx); st != (compact.Stats{}) {
		t.Fatalf("RunOnce under a canceled context did work: %v", st)
	}
	if st := c.Stats(); st != (compact.Stats{}) {
		t.Fatalf("canceled compactor did work: %v", st)
	}
	if after := frag.Analyze(store).MeanFragments(); after != before {
		t.Fatalf("mean fragments %.2f -> %.2f under a canceled context", before, after)
	}
	if st := c.RunOnce(context.Background()); st.Rewrites == 0 {
		t.Fatalf("RunOnce with a live context did no work: %v", st)
	}
}

// TestCompactorPerShard pins the sharded pass: one scan covers every
// shard, rewrites route through the top to each key's owner, and
// PublishMetrics reports only the aggregate names.
func TestCompactorPerShard(t *testing.T) {
	s := newShatteredShards(t, 4, 32)
	before := frag.Analyze(s).MeanFragments()
	c, err := compact.New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := c.RunOnce(context.Background())
	if st.Rewrites == 0 || st.Scans != 1 {
		t.Fatalf("pass = %+v, want rewrites > 0 in one scan", st)
	}
	if after := frag.Analyze(s).MeanFragments(); after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
	if got := c.Stats(); got != st {
		t.Fatalf("Stats() = %+v after one pass, want the pass's %+v", got, st)
	}
	checkPublished(t, c, 1)
}

// TestCompactorUnwrapsCache pins the layering rule: the compactor finds
// the rewriter beneath a cache, and a read through the cache after the
// relocation still succeeds.
func TestCompactorUnwrapsCache(t *testing.T) {
	ctx := context.Background()
	inner := newShatteredFS(t, 8, units.MB)
	cached, err := cache.New(inner, cache.WithCapacity(32*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	c, err := compact.New(cached, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.RunOnce(ctx); st.Rewrites == 0 || st.Scans != 1 {
		t.Fatalf("pass over cache = %+v, want rewrites > 0 in one scan", st)
	}
	if _, _, err := blob.Get(ctx, cached, "obj-00"); err != nil {
		t.Fatalf("read through cache after compaction: %v", err)
	}
	checkPublished(t, c, 1)
}

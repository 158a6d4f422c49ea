package workload

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func newFS(capacity int64) blob.Store {
	s, err := core.NewFileStore(vclock.New(), blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		panic(err)
	}
	return s
}

func TestConstantDist(t *testing.T) {
	c := Constant{Size: 256 * units.KB}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if c.Sample(rng) != 256*units.KB {
			t.Fatal("constant not constant")
		}
	}
	if c.Mean() != 256*units.KB {
		t.Fatal("mean wrong")
	}
}

func TestUniformDist(t *testing.T) {
	u := UniformAround(10 * units.MB)
	if u.Min != 5*units.MB || u.Max != 15*units.MB {
		t.Fatalf("UniformAround bounds: %d..%d", u.Min, u.Max)
	}
	if u.Mean() != 10*units.MB {
		t.Fatalf("mean = %d", u.Mean())
	}
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := u.Sample(rng)
		if s < u.Min || s > u.Max {
			t.Fatalf("sample %d out of range", s)
		}
		sum += float64(s)
	}
	mean := sum / n
	if math.Abs(mean-float64(u.Mean()))/float64(u.Mean()) > 0.02 {
		t.Fatalf("sample mean %.0f deviates from %d", mean, u.Mean())
	}
}

func TestBulkLoadReachesOccupancy(t *testing.T) {
	r := NewRunner(newFS(256*units.MB), Constant{Size: 1 * units.MB}, 1)
	res, err := r.BulkLoad(0.5)
	if err != nil {
		t.Fatal(err)
	}
	u := r.Repo().Usage()
	occ := float64(u.LiveBytes) / float64(u.CapacityBytes)
	if occ < 0.45 || occ > 0.5 {
		t.Fatalf("occupancy %.3f", occ)
	}
	if res.Ops != r.Repo().ObjectCount() {
		t.Fatalf("ops %d != objects %d", res.Ops, r.Repo().ObjectCount())
	}
	if res.MBps <= 0 || res.Seconds <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if r.Tracker().Age() != 0 {
		t.Fatal("age after bulk load should be 0")
	}
}

func TestChurnReachesAge(t *testing.T) {
	r := NewRunner(newFS(128*units.MB), Constant{Size: 1 * units.MB}, 7)
	if _, err := r.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	res, err := r.ChurnToAge(2.0, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EndingAge < 2.0 || res.EndingAge > 2.2 {
		t.Fatalf("ending age %.3f", res.EndingAge)
	}
	// Object count stays fixed: churn replaces, never grows.
	if res.ObjectsAlive != r.Repo().ObjectCount() {
		t.Fatal("ObjectsAlive wrong")
	}
}

// TestAgeCountsWritesBesideTheRunner pins that storage age is the
// store's own number: a replace made straight on the store, not through
// the runner's executor, ages the volume all the same.
func TestAgeCountsWritesBesideTheRunner(t *testing.T) {
	r := NewRunner(newFS(64*units.MB), Constant{Size: 1 * units.MB}, 1)
	if _, err := r.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	if age := r.Tracker().Age(); age != 0 {
		t.Fatalf("age after bulk load = %g, want 0", age)
	}
	live := r.Repo().LiveBytes()
	if err := blob.Replace(context.Background(), r.Repo(), r.Keys()[0], 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Tracker().Age(), float64(1*units.MB)/float64(live); got != want {
		t.Fatalf("age after a direct replace = %g, want %g", got, want)
	}
}

func TestChurnBeforeLoadFails(t *testing.T) {
	r := NewRunner(newFS(64*units.MB), Constant{Size: 1 * units.MB}, 1)
	if _, err := r.ChurnToAge(1, ChurnOptions{}); err == nil {
		t.Fatal("churn before load succeeded")
	}
	if _, err := r.MeasureRead(5, ReadOptions{}); err == nil {
		t.Fatal("measure before load succeeded")
	}
}

func TestMeasureReadThroughput(t *testing.T) {
	r := NewRunner(newFS(128*units.MB), Constant{Size: 512 * units.KB}, 3)
	if _, err := r.BulkLoad(0.4); err != nil {
		t.Fatal(err)
	}
	res, err := r.MeasureRead(50, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 50 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Bytes != 50*512*units.KB {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.MBps <= 0 {
		t.Fatal("no throughput")
	}
}

// TestMeasureReadRejectsBadSamples pins the typed rejection: a
// zero/negative sample count must fail ErrNoSamples instead of
// silently returning an empty Result for downstream 0/0 rate math.
func TestMeasureReadRejectsBadSamples(t *testing.T) {
	r := NewRunner(newFS(128*units.MB), Constant{Size: 512 * units.KB}, 3)
	if _, err := r.BulkLoad(0.4); err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{0, -7} {
		if _, err := r.MeasureRead(samples, ReadOptions{}); !errors.Is(err, ErrNoSamples) {
			t.Fatalf("MeasureRead(%d) = %v, want ErrNoSamples", samples, err)
		}
	}
	if _, err := ReadPhase(context.Background(), r.Repo(), r.Keys(), 0, 1, ReadOptions{}); !errors.Is(err, ErrNoSamples) {
		t.Fatal("ReadPhase accepted 0 samples")
	}
}

// TestZipfPopularityReadMix pins the Zipf read phase: it reads real
// objects, concentrates on the hot prefix of the keyspace, and
// ReadPhase with a fixed seed is reproducible over the same layout.
func TestZipfPopularityReadMix(t *testing.T) {
	r := NewRunner(newFS(128*units.MB), Constant{Size: 512 * units.KB}, 3)
	if _, err := r.BulkLoad(0.4); err != nil {
		t.Fatal(err)
	}
	pop, err := NewZipfPopularity(1.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.MeasureRead(50, ReadOptions{Popularity: pop})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 50 || res.Bytes != 50*512*units.KB || res.MBps <= 0 {
		t.Fatalf("zipf read phase: %+v", res)
	}
	a, err := ReadPhase(context.Background(), r.Repo(), r.Keys(), 40, 9, ReadOptions{Popularity: pop})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadPhase(context.Background(), r.Repo(), r.Keys(), 40, 9, ReadOptions{Popularity: pop})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Bytes != b.Bytes {
		t.Fatalf("ReadPhase not reproducible: %+v vs %+v", a, b)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, int) {
		r := NewRunner(newFS(128*units.MB), UniformAround(1*units.MB), 42)
		if _, err := r.BulkLoad(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := r.ChurnToAge(1, ChurnOptions{ReadsPerWrite: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.MBps, res.Ops
	}
	m1, o1 := run()
	m2, o2 := run()
	if m1 != m2 || o1 != o2 {
		t.Fatalf("non-deterministic: %.4f/%d vs %.4f/%d", m1, o1, m2, o2)
	}
}

func TestInterleavedReadsSlowChurn(t *testing.T) {
	run := func(reads int) float64 {
		r := NewRunner(newFS(128*units.MB), Constant{Size: 1 * units.MB}, 5)
		if _, err := r.BulkLoad(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := r.ChurnToAge(1, ChurnOptions{ReadsPerWrite: reads})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	if run(2) <= run(0) {
		t.Fatal("interleaved reads did not add virtual time")
	}
}

func TestSizesClusterAligned(t *testing.T) {
	r := NewRunner(newFS(128*units.MB), Uniform{Min: 100 * units.KB, Max: 900 * units.KB}, 11)
	if _, err := r.BulkLoad(0.3); err != nil {
		t.Fatal(err)
	}
	for _, k := range r.Keys() {
		info, err := r.Repo().Stat(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size%(4*units.KB) != 0 {
			t.Fatalf("object %s size %d not 4KB aligned", k, info.Size)
		}
	}
}

// TestChurnTolerateNoSpace pins the sharded-regime knob: a churn phase
// over a nearly full store skips ErrNoSpaceLeft replaces instead of
// failing, counts them, and still reaches the target age; without the
// knob the same phase surfaces the typed error.
func TestChurnTolerateNoSpace(t *testing.T) {
	// Uniform sizes make live bytes random-walk upward from 95% full
	// until a safe write (old and new version coexist until commit)
	// cannot find room for the new version.
	mk := func() *Runner {
		r := NewRunner(newFS(64*units.MB), Uniform{Min: 2 * units.MB, Max: 6 * units.MB}, 1)
		if _, err := r.BulkLoad(0.95); err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := mk()
	res, err := r.ChurnToAge(8, ChurnOptions{TolerateNoSpace: true})
	if err != nil {
		t.Fatalf("tolerant churn failed: %v", err)
	}
	if res.Skipped == 0 {
		t.Fatal("expected skipped safe writes on a nearly full store")
	}
	if res.EndingAge < 8 {
		t.Fatalf("age %.2f did not reach target", res.EndingAge)
	}

	r2 := mk()
	if _, err := r2.ChurnToAge(8, ChurnOptions{}); !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("intolerant churn = %v, want ErrNoSpaceLeft", err)
	}
}

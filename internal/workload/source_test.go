package workload

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// TestByteBudget pins the shared-claim semantics the load streams race
// on: claims succeed up to the target, the failing claim leaves the
// budget untouched, and Reserve consumes unconditionally.
func TestByteBudget(t *testing.T) {
	b := NewByteBudget(100)
	if !b.Claim(60) || !b.Claim(40) {
		t.Fatal("claims within budget refused")
	}
	if b.Claim(1) {
		t.Fatal("claim over budget accepted")
	}
	// The refused claim must not leak: an exact-fit claim after a refusal
	// still succeeds on a fresh budget.
	b2 := NewByteBudget(100)
	if b2.Claim(101) {
		t.Fatal("oversized claim accepted")
	}
	if !b2.Claim(100) {
		t.Fatal("refused claim consumed budget")
	}
	b3 := NewByteBudget(100)
	b3.Reserve(90)
	if b3.Claim(20) {
		t.Fatal("claim ignored reservation")
	}
	if !b3.Claim(10) {
		t.Fatal("claim within reserved budget refused")
	}
}

// countingDist is a constant size that counts its draws.
type countingDist struct {
	Constant
	draws int
}

func (d *countingDist) Sample(rng *rand.Rand) int64 {
	d.draws++
	return d.Constant.Sample(rng)
}

// TestPrimedLoadSourceKeepsItsClaim pins prime: a primed source holds its
// first object whatever its siblings claim afterwards, and a prime that
// found no room ends the source without a second draw.
func TestPrimedLoadSourceKeepsItsClaim(t *testing.T) {
	budget := NewByteBudget(2 * units.MB)
	rng := rand.New(rand.NewSource(1))
	srcs := make([]*LoadSource, 3)
	dists := make([]*countingDist, 3)
	for i := range srcs {
		dists[i] = &countingDist{Constant: Constant{Size: 1 * units.MB}}
		srcs[i] = &LoadSource{Dist: dists[i], Budget: budget,
			Key: func() string { return string(rune('a' + i)) }}
		srcs[i].prime(rng)
	}
	drain := func(src *LoadSource) (n int) {
		for {
			if _, ok := src.Next(rng); !ok {
				return n
			}
			n++
		}
	}
	// The last source drains first, as a goroutine that ran alone would:
	// the budget is spent, yet the first two still hold their claims.
	got := []int{drain(srcs[2]), drain(srcs[1]), drain(srcs[0])}
	if got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("ops per source (third, second, first) = %v, want [0 1 1]", got)
	}
	if d := dists[2].draws; d != 1 {
		t.Fatalf("source primed on a spent budget drew %d sizes, want 1", d)
	}
}

// TestLoadSourceStopsAtBudget pins the bulk-load Source: creates flow
// until the first size that no longer fits, keys are generated only for
// emitted ops, and OnCreate fires only for ops observed successful.
func TestLoadSourceStopsAtBudget(t *testing.T) {
	var created []string
	n := 0
	src := &LoadSource{
		Dist:   Constant{Size: 40 * units.KB},
		Budget: NewByteBudget(100 * units.KB),
		Key: func() string {
			n++
			return string(rune('a' + n - 1))
		},
		OnCreate: func(key string) { created = append(created, key) },
	}
	rng := rand.New(rand.NewSource(1))
	var ops []Op
	for {
		op, ok := src.Next(rng)
		if !ok {
			break
		}
		if op.Kind != OpCreate {
			t.Fatalf("load emitted %v", op.Kind)
		}
		src.Observe(op, nil)
		ops = append(ops, op)
	}
	// 40 KB objects into a 100 KB budget: exactly 2 fit.
	if len(ops) != 2 || n != 2 {
		t.Fatalf("emitted %d ops, generated %d keys", len(ops), n)
	}
	if len(created) != 2 {
		t.Fatalf("OnCreate saw %d commits", len(created))
	}
	// A failed op must not reach OnCreate.
	src2 := &LoadSource{Dist: Constant{Size: units.KB}, Budget: NewByteBudget(units.MB),
		Key: func() string { return "x" }, OnCreate: func(string) { t.Fatal("failed create reported") }}
	op, _ := src2.Next(rng)
	src2.Observe(op, errors.New("boom"))
}

// TestChurnSourceInterleavesReadsAfterSuccess pins the feedback
// contract: reads are queued only after an observed successful write,
// so a skipped write draws no read keys and the rng sequence matches
// the classic churn loop exactly.
func TestChurnSourceInterleavesReadsAfterSuccess(t *testing.T) {
	age := 0.0
	src := &ChurnSource{
		Keys:          []string{"a", "b", "c"},
		Dist:          Constant{Size: 8 * units.KB},
		TargetAge:     1.0,
		Age:           func() float64 { return age },
		ReadsPerWrite: 2,
	}
	rng := rand.New(rand.NewSource(3))

	// First write succeeds: two reads must follow before the next write.
	op1, ok := src.Next(rng)
	if !ok || op1.Kind != OpReplace {
		t.Fatalf("first op = %v", op1)
	}
	src.Observe(op1, nil)
	for i := 0; i < 2; i++ {
		op, ok := src.Next(rng)
		if !ok || op.Kind != OpRead {
			t.Fatalf("interleaved op %d = %v", i, op)
		}
		src.Observe(op, nil)
	}

	// Failed write: no reads queued, next op is a write again.
	op2, ok := src.Next(rng)
	if !ok || op2.Kind != OpReplace {
		t.Fatalf("op after reads = %v", op2)
	}
	src.Observe(op2, errors.New("no space"))
	op3, ok := src.Next(rng)
	if !ok || op3.Kind != OpRead {
		// The skipped write queued nothing, so this is the next WRITE.
		if op3.Kind != OpReplace {
			t.Fatalf("op after failed write = %v", op3)
		}
	}
	if op3.Kind == OpRead {
		t.Fatal("skipped write still queued interleaved reads")
	}

	// Reaching the target age ends the stream (after pending reads).
	src.Observe(op3, nil)
	age = 1.0
	for i := 0; i < 2; i++ { // drain the two queued reads
		if op, ok := src.Next(rng); !ok || op.Kind != OpRead {
			t.Fatalf("pending read %d not drained: %v", i, op)
		}
	}
	if _, ok := src.Next(rng); ok {
		t.Fatal("source kept emitting past target age")
	}
}

// TestReadSourceEmitsSamples pins the read-measurement Source: exactly
// Samples reads over the keyspace, uniform when Popularity is nil.
func TestReadSourceEmitsSamples(t *testing.T) {
	src := &ReadSource{Keys: []string{"a", "b", "c"}, Samples: 10}
	rng := rand.New(rand.NewSource(5))
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		op, ok := src.Next(rng)
		if !ok || op.Kind != OpRead {
			t.Fatalf("op %d = %v ok=%v", i, op, ok)
		}
		seen[op.Key]++
	}
	if _, ok := src.Next(rng); ok {
		t.Fatal("source exceeded sample count")
	}
	if src.Err() != nil {
		t.Fatalf("clean source reported %v", src.Err())
	}
}

// badPopularity picks indexes outside the population.
type badPopularity struct{}

func (badPopularity) Name() string                      { return "bad" }
func (badPopularity) Picker(*rand.Rand, int) func() int { return func() int { return 99 } }

// TestReadSourceBadPopularity pins the sticky-error contract: an
// out-of-range popularity draw ends the stream with ErrBadDist
// surfaced through Err.
func TestReadSourceBadPopularity(t *testing.T) {
	src := &ReadSource{Keys: []string{"a"}, Samples: 5, Popularity: badPopularity{}}
	if _, ok := src.Next(rand.New(rand.NewSource(1))); ok {
		t.Fatal("bad popularity emitted an op")
	}
	if !errors.Is(src.Err(), ErrBadDist) {
		t.Fatalf("Err = %v, want ErrBadDist", src.Err())
	}
}

// TestParseDist covers the fragbench -dist grammar: a bare size or
// constant:SIZE, and uniform:MIN-MAX. Only those two shapes parse; a
// spec naming any other distribution (the Zipf size distribution
// included) is refused with ErrBadDist, as are empty, zero, negative
// and inverted sizes.
func TestParseDist(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		want       SizeDist // nil: the spec must be refused
	}{
		{"uniform", "uniform:5M-15M", Uniform{Min: 5 * units.MB, Max: 15 * units.MB}},
		{"uniform-degenerate", "uniform:5M-5M", Uniform{Min: 5 * units.MB, Max: 5 * units.MB}},
		{"uniform-mixed-units", "uniform:512K-2M", Uniform{Min: 512 * units.KB, Max: 2 * units.MB}},
		{"constant", "constant:10M", Constant{Size: 10 * units.MB}},
		{"constant-bytes", "constant:4096", Constant{Size: 4096}},
		{"bare-size", "512K", Constant{Size: 512 * units.KB}},
		{"bare-size-suffix", "1GB", Constant{Size: units.GB}},
		{"empty", "", nil},
		{"uniform-empty", "uniform:", nil},
		{"uniform-one-bound", "uniform:5M", nil},
		{"uniform-inverted", "uniform:15M-5M", nil},
		{"uniform-zero-min", "uniform:0-1M", nil},
		{"uniform-bad-max", "uniform:1M-x", nil},
		{"uniform-bad-min", "uniform:x-1M", nil},
		{"zipf-sizes", "zipf:256K-64M", nil},
		{"unknown-name", "zipfian:1M-2M", nil},
		{"constant-negative", "constant:-4K", nil},
		{"constant-zero", "constant:0", nil},
		{"constant-sub-byte", "constant:0.5", nil},
		{"constant-garbage", "constant:x", nil},
		{"bare-zero", "0", nil},
		{"bare-negative", "-1M", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ParseDist(tc.spec)
			if tc.want == nil {
				if !errors.Is(err, ErrBadDist) {
					t.Fatalf("ParseDist(%q) = %v, %v; want ErrBadDist", tc.spec, d, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseDist(%q): %v", tc.spec, err)
			}
			if d != tc.want {
				t.Fatalf("ParseDist(%q) = %#v, want %#v", tc.spec, d, tc.want)
			}
			lo, hi := d.Mean(), d.Mean()
			if u, ok := d.(Uniform); ok {
				lo, hi = u.Min, u.Max
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 200; i++ {
				if n := d.Sample(rng); n < lo || n > hi {
					t.Fatalf("%s sampled %d outside [%d, %d]", d.Name(), n, lo, hi)
				}
			}
		})
	}
}

package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestExecutorStreamCountBounds pins the Run validation: stream counts
// outside [1, MaxStreams] are refused with blob.ErrBadOption before any
// store traffic, independent of the host's core count.
func TestExecutorStreamCountBounds(t *testing.T) {
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExecutor(store)
	if _, err := ex.Run(nil, RunOptions{}); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("0 streams: err = %v, want ErrBadOption", err)
	}
	over := make([]Stream, MaxStreams+1)
	if _, err := ex.Run(over, RunOptions{}); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("%d streams: err = %v, want ErrBadOption", len(over), err)
	}
}

// TestRunnerStreamsHighK drives 64 streams through the full pipeline
// — one shared AgeTracker, group-commit leaders and followers, pooled
// reader/writer handles — at a size CI can afford under -race. The assertions are
// deliberately coarse; the point of the test is the interleaving.
func TestRunnerStreamsHighK(t *testing.T) {
	const k = 64
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(k, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, Constant{Size: 256 * units.KB}, 1).WithStreams(k)

	load, err := r.BulkLoad(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if load.Ops == 0 {
		t.Fatal("bulk load did no ops")
	}
	churn, err := r.ChurnToAge(1, ChurnOptions{TolerateNoSpace: true, ReadsPerWrite: 1})
	if err != nil {
		t.Fatal(err)
	}
	if churn.Ops == 0 {
		t.Fatal("churn did no ops")
	}
	if age := r.Tracker().Age(); age < 0.9 {
		t.Fatalf("age after churn = %g, want ~1", age)
	}
	cs, ok := blob.CommitStatsOf(store)
	if !ok || cs.Commits == 0 {
		t.Fatalf("commit pipeline unused: %+v (ok=%v)", cs, ok)
	}
}

// TestConcurrentStreamsAgeMatchesSequential runs 256 executor streams
// over disjoint keyspaces — a load phase, then replaces and deletes —
// and checks that the store ends with the same retired bytes, live
// bytes and Age, to the last bit, as the same streams run one after
// another.
func TestConcurrentStreamsAgeMatchesSequential(t *testing.T) {
	const streams, objects = 256, 4
	phase := func(stream int, load bool) []Op {
		var ops []Op
		for j := 0; j < objects; j++ {
			key := fmt.Sprintf("s%03d/obj%03d", stream, j)
			size := 4*units.KB + int64(512*j)
			if load {
				ops = append(ops, Op{Kind: OpCreate, Key: key, Size: size})
				continue
			}
			ops = append(ops, Op{Kind: OpReplace, Key: key, Size: size + 256})
			if j%3 == 0 {
				ops = append(ops, Op{Kind: OpDelete, Key: key})
			}
		}
		return ops
	}
	run := func(concurrent bool) blob.Store {
		ex := NewExecutor(newFS(512 * units.MB))
		for _, load := range []bool{true, false} {
			var all []Stream
			for i := 0; i < streams; i++ {
				all = append(all, Stream{Source: &sliceSource{ops: phase(i, load), i: new(int)},
					RNG: rand.New(rand.NewSource(int64(i)))})
			}
			if !concurrent {
				for _, st := range all {
					if _, err := ex.Run([]Stream{st}, RunOptions{}); err != nil {
						t.Fatal(err)
					}
				}
			} else if _, err := ex.Run(all, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return ex.Store()
	}
	seq, conc := run(false), run(true)
	if seq.RetiredBytes() == 0 {
		t.Fatal("the sequential run retired nothing")
	}
	if seq.RetiredBytes() != conc.RetiredBytes() {
		t.Fatalf("retired bytes: sequential %d, concurrent %d", seq.RetiredBytes(), conc.RetiredBytes())
	}
	if seq.LiveBytes() != conc.LiveBytes() {
		t.Fatalf("live bytes: sequential %d, concurrent %d", seq.LiveBytes(), conc.LiveBytes())
	}
	seqAge, concAge := core.NewAgeTracker(seq).Age(), core.NewAgeTracker(conc).Age()
	if math.Float64bits(seqAge) != math.Float64bits(concAge) {
		t.Fatalf("age: sequential %v, concurrent %v", seqAge, concAge)
	}
}

package workload

import (
	"errors"
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
// — per-stream AgeTracker views, group-commit leaders and followers, pooled reader/writer
// handles — at a size CI can afford under -race. The assertions are
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

package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestRunnerStreamsBulkLoadAndChurn drives 4 streams through a
// group-committing filesystem store and checks the phase accounting and
// keyspace separation.
func TestRunnerStreamsBulkLoadAndChurn(t *testing.T) {
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(4, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, Constant{Size: 1 * units.MB}, 1).WithStreams(4)

	load, err := r.BulkLoad(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if load.Ops == 0 || load.Bytes == 0 {
		t.Fatalf("empty bulk load: %+v", load)
	}
	if u := store.Usage(); u.LiveBytes > int64(float64(u.CapacityBytes)*0.5) {
		t.Fatalf("overshot load target: live=%d of capacity %d", u.LiveBytes, u.CapacityBytes)
	}
	if r.Tracker().Age() != 0 {
		t.Fatalf("age after load = %g", r.Tracker().Age())
	}
	// Every stream writes only its own keyspace.
	perStream := map[string]bool{}
	for _, k := range r.Keys() {
		perStream[k[:3]] = true
		if !strings.HasPrefix(k, "s0") {
			t.Fatalf("unexpected key %q", k)
		}
	}
	if len(perStream) != 4 {
		t.Fatalf("streams seen: %v", perStream)
	}

	churn, err := r.ChurnToAge(1, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if churn.EndingAge < 1 {
		t.Fatalf("churn stopped at age %g", churn.EndingAge)
	}
	if churn.Ops == 0 || churn.MBps <= 0 {
		t.Fatalf("churn result: %+v", churn)
	}
}

// TestBulkLoadGivesEveryStreamAnObject loads 4 streams into a budget of
// exactly 4 objects: each stream must load one, however the scheduler
// runs them. Left to race for the budget, a stream whose goroutine ran
// first could take several and leave a sibling with none.
func TestBulkLoadGivesEveryStreamAnObject(t *testing.T) {
	r := NewRunner(newFS(64*units.MB), Constant{Size: 1 * units.MB}, 1).WithStreams(4)
	if _, err := r.BulkLoadBytes(4 * units.MB); err != nil {
		t.Fatal(err)
	}
	for i, s := range r.streams {
		if len(s.keys) != 1 {
			t.Fatalf("stream %d loaded %v, want one object", i, s.keys)
		}
	}
}

// TestRunnerStreamsContextCancel pins that a cancelled context stops
// every stream with a typed error.
func TestRunnerStreamsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(newFS(64*units.MB), Constant{Size: 1 * units.MB}, 1).WithStreams(2)
	r.Executor().WithContext(ctx)
	if _, err := r.BulkLoad(0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("BulkLoad under cancelled ctx = %v", err)
	}
}

// noSpaceEveryOther wraps a store and refuses every other Replace with
// ErrNoSpaceLeft after burning simulated time — a nearly-full shard in
// miniature, for pinning the skip accounting.
type noSpaceEveryOther struct {
	blob.Store
	n int
}

func (s *noSpaceEveryOther) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	s.n++
	if s.n%2 == 0 {
		// A refused safe write still pays for the failed allocation
		// attempt before rolling back.
		s.Clock().AdvanceSeconds(1)
		return nil, fmt.Errorf("%w: shard full", blob.ErrNoSpaceLeft)
	}
	return s.Store.Replace(ctx, key, size)
}

// TestChurnSkippedTimeExcludedFromThroughput pins the TolerateNoSpace
// accounting fix: virtual time burned by skipped writes lands in
// Result.SkippedSeconds and is excluded from the MBps mean instead of
// diluting it.
func TestChurnSkippedTimeExcludedFromThroughput(t *testing.T) {
	inner := newFS(128 * units.MB)
	s := &noSpaceEveryOther{Store: inner}
	r := NewRunner(s, Constant{Size: 1 * units.MB}, 3)
	if _, err := r.BulkLoad(0.25); err != nil {
		t.Fatal(err)
	}
	res, err := r.ChurnToAge(1, ChurnOptions{TolerateNoSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("decorator produced no skips")
	}
	// Each skip burned exactly 1 virtual second.
	if want := float64(res.Skipped); res.SkippedSeconds < want {
		t.Fatalf("SkippedSeconds = %g, want >= %g", res.SkippedSeconds, want)
	}
	if res.SkippedSeconds >= res.Seconds {
		t.Fatalf("skipped time %g not inside phase time %g", res.SkippedSeconds, res.Seconds)
	}
	diluted := units.MBps(res.Bytes, res.Seconds)
	want := units.MBps(res.Bytes, res.Seconds-res.SkippedSeconds)
	if res.MBps != want || res.MBps <= diluted {
		t.Fatalf("MBps = %g, want %g (diluted mean would be %g)", res.MBps, want, diluted)
	}
}

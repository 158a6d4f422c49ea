package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

// mkSharded builds an n-shard filesystem-backed store with perShard
// bytes of capacity on each shard.
func mkSharded(t *testing.T, n int, perShard int64, opts ...blob.Option) *shard.Store {
	t.Helper()
	clock := vclock.New()
	all := append([]blob.Option{
		blob.WithCapacity(perShard),
		blob.WithDiskMode(disk.MetadataMode),
	}, opts...)
	children := make([]blob.Store, n)
	for i := range children {
		c, err := core.NewFileStore(clock, all...)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
	}
	s, err := shard.New(children...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := shard.New(); !errors.Is(err, shard.ErrNoShards) {
		t.Fatalf("New() = %v, want ErrNoShards", err)
	}
	clock := vclock.New()
	child, err := core.NewFileStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(child, nil); !errors.Is(err, shard.ErrNilShard) {
		t.Fatalf("New(child, nil) = %v, want ErrNilShard", err)
	}
	other, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(child, other); !errors.Is(err, shard.ErrClockMismatch) {
		t.Fatalf("New over two clocks = %v, want ErrClockMismatch", err)
	}
	s, err := shard.New(child)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 || s.Clock() != clock {
		t.Fatalf("NumShards=%d clock=%p", s.NumShards(), s.Clock())
	}
}

func TestName(t *testing.T) {
	clock := vclock.New()
	fsChild, err := core.NewFileStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	dbChild, err := core.NewDBStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := shard.New(fsChild, dbChild)
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.Name(); got != "sharded-2(database+filesystem)" {
		t.Fatalf("Name() = %q", got)
	}
	homo := mkSharded(t, 4, 64*units.MB)
	if got := homo.Name(); got != "sharded-4(filesystem)" {
		t.Fatalf("Name() = %q", got)
	}
}

// TestRendezvousRouting pins the properties the router exists for:
// deterministic placement, reasonable balance, and minimal movement when
// the shard count changes.
func TestRendezvousRouting(t *testing.T) {
	s8 := mkSharded(t, 8, 64*units.MB)
	s9 := mkSharded(t, 9, 64*units.MB)

	const keys = 4096
	counts := make([]int, 8)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("obj-%08d", i)
		a, b := s8.ShardFor(key), s8.ShardFor(key)
		if a != b {
			t.Fatalf("routing of %q not deterministic: %d vs %d", key, a, b)
		}
		counts[a]++
		// Growing 8 -> 9 shards must only move keys onto the new shard,
		// never between surviving shards.
		n := s9.ShardFor(key)
		if n != a {
			if n != 8 {
				t.Fatalf("key %q moved between surviving shards: %d -> %d", key, a, n)
			}
			moved++
		}
	}
	// Balance: each shard should hold roughly keys/8; allow a wide band
	// (FNV-1a over short keys is not perfectly uniform).
	want := keys / 8
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d holds %d of %d keys, want ~%d", i, c, keys, want)
		}
	}
	// Movement: ~1/9 of keys should land on the new shard; accept 5-20%.
	if frac := float64(moved) / keys; frac < 0.05 || frac > 0.20 {
		t.Fatalf("%.1f%% of keys moved growing 8->9 shards, want ~11%%", frac*100)
	}
}

// TestOperationsRouteToOwner pins that data written through the sharded
// store lands on (only) the owning child and every read path agrees.
func TestOperationsRouteToOwner(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%03d", i)
		if err := blob.Put(ctx, s, key, 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		owner := s.ShardFor(key)
		for j := 0; j < s.NumShards(); j++ {
			_, err := s.Shard(j).Stat(ctx, key)
			if j == owner && err != nil {
				t.Fatalf("owner shard %d missing %s: %v", j, key, err)
			}
			if j != owner && !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("non-owner shard %d has %s (err=%v)", j, key, err)
			}
		}
	}
	if s.ObjectCount() != n {
		t.Fatalf("ObjectCount = %d, want %d", s.ObjectCount(), n)
	}
	if got := s.LiveBytes(); got != n*256*units.KB {
		t.Fatalf("LiveBytes = %d", got)
	}
	if got := len(s.Keys()); got != n {
		t.Fatalf("Keys() returned %d keys", got)
	}
	// Aggregate capacity/free span all children.
	if s.CapacityBytes() != 4*s.Shard(0).CapacityBytes() {
		t.Fatalf("CapacityBytes = %d", s.CapacityBytes())
	}
	if s.FreeBytes() <= 0 || s.FreeBytes() >= s.CapacityBytes() {
		t.Fatalf("FreeBytes = %d of %d", s.FreeBytes(), s.CapacityBytes())
	}
}

// TestSnapshotAccounting pins the aggregated per-shard stats: live and
// retired bytes, fragments, occupancy, and totals that match the store's
// own accounting surface.
func TestSnapshotAccounting(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	const objSize = 512 * units.KB
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%03d", i)
		if err := blob.Put(ctx, s, keys[i], objSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing retired yet.
	snap := s.Snapshot()
	if snap.RetiredBytes != 0 {
		t.Fatalf("RetiredBytes = %d before any churn", snap.RetiredBytes)
	}
	if snap.Objects != len(keys) || snap.LiveBytes != int64(len(keys))*objSize {
		t.Fatalf("snapshot totals: %+v", snap)
	}

	// Replace retires exactly the old version, on the owning shard.
	victim := keys[7]
	owner := s.ShardFor(victim)
	if err := blob.Replace(ctx, s, victim, objSize/2, nil); err != nil {
		t.Fatal(err)
	}
	// Delete retires the current version of another object.
	gone := keys[13]
	goneOwner := s.ShardFor(gone)
	if err := s.Delete(ctx, gone); err != nil {
		t.Fatal(err)
	}

	snap = s.Snapshot()
	wantRetired := int64(objSize + objSize) // one replace + one delete
	if snap.RetiredBytes != wantRetired {
		t.Fatalf("RetiredBytes = %d, want %d", snap.RetiredBytes, wantRetired)
	}
	perShard := make(map[int]int64)
	perShard[owner] += objSize
	perShard[goneOwner] += objSize
	for _, si := range snap.Shards {
		if si.RetiredBytes != perShard[si.Index] {
			t.Fatalf("shard %d retired %d, want %d", si.Index, si.RetiredBytes, perShard[si.Index])
		}
		if si.Backend != "filesystem" {
			t.Fatalf("shard %d backend %q", si.Index, si.Backend)
		}
		if si.CapacityBytes != s.Shard(si.Index).CapacityBytes() {
			t.Fatalf("shard %d capacity %d != child %d",
				si.Index, si.CapacityBytes, s.Shard(si.Index).CapacityBytes())
		}
		if occ := si.Occupancy(); occ < 0 || occ > 1 {
			t.Fatalf("shard %d occupancy %f", si.Index, occ)
		}
		if si.Objects > 0 && si.MeanFragments < 1 {
			t.Fatalf("shard %d has %d objects but %.2f fragments/object",
				si.Index, si.Objects, si.MeanFragments)
		}
	}
	if snap.Objects != len(keys)-1 {
		t.Fatalf("Objects = %d after delete", snap.Objects)
	}
	if snap.LiveBytes != s.LiveBytes() {
		t.Fatalf("snapshot live %d != store live %d", snap.LiveBytes, s.LiveBytes())
	}
	if snap.MeanFragments < 1 {
		t.Fatalf("MeanFragments = %.2f", snap.MeanFragments)
	}
	if snap.LiveImbalance < 0 {
		t.Fatalf("LiveImbalance = %f", snap.LiveImbalance)
	}
	// Deleting and replacing again must not double-retire (dead entries
	// invalidate stale snapshots).
	if err := blob.Put(ctx, s, gone, objSize, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().RetiredBytes; got != wantRetired {
		t.Fatalf("recreate after delete retired %d, want %d", got, wantRetired)
	}
}

// TestSnapshotRetiredIsChildrenSum pins where a fleet's retired bytes
// come from: each shard's figure is its child's own counter, read
// through the child's wrapper chain, and the fleet's is their sum.
func TestSnapshotRetiredIsChildrenSum(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	var want int64
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%03d", i)
		size := int64(i+1) * 16 * units.KB
		if err := blob.Put(ctx, s, key, size, nil); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := blob.Replace(ctx, s, key, 64*units.KB, nil); err != nil {
				t.Fatal(err)
			}
			want += size
			size = 64 * units.KB
		}
		if i%3 == 0 {
			if err := s.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
			want += size
		}
	}
	snap := s.Snapshot()
	var sum int64
	for i, si := range snap.Shards {
		child, ok := blob.As[*core.FileStore](s.Shard(i))
		if !ok {
			t.Fatalf("shard %d is not a core store", i)
		}
		if si.RetiredBytes != child.RetiredBytes() {
			t.Fatalf("shard %d retired %d, child counted %d", i, si.RetiredBytes, child.RetiredBytes())
		}
		sum += child.RetiredBytes()
	}
	if snap.RetiredBytes != sum || sum != want {
		t.Fatalf("fleet retired %d, children sum %d, want %d", snap.RetiredBytes, sum, want)
	}
}

// TestErrorPassThrough pins that child failures surface the blob
// sentinels unchanged through the shard layer.
func TestErrorPassThrough(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 16*units.MB)
	if _, err := s.Open(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Open missing = %v", err)
	}
	if err := s.Delete(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Delete missing = %v", err)
	}
	// An object bigger than one shard's volume fails with ErrNoSpaceLeft
	// even though the aggregate store could hold it: objects never span
	// shards.
	if err := blob.Put(ctx, s, "big", 32*units.MB, nil); !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("oversized put = %v, want ErrNoSpaceLeft", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Open(canceled, "any"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open canceled = %v", err)
	}
	if _, err := s.Create(canceled, "any", units.MB); !errors.Is(err, context.Canceled) {
		t.Fatalf("Create canceled = %v", err)
	}
}

// TestParallelAcrossShards drives concurrent writers and snapshots over
// distinct keys; with each shard owning its own engine this exercises
// true cross-shard parallelism (meaningful under -race).
func TestParallelAcrossShards(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 8, 64*units.MB)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("w%02d-%02d", g, i)
				if err := blob.Put(ctx, s, key, 128*units.KB, nil); err != nil {
					errs <- err
					return
				}
				if err := blob.Replace(ctx, s, key, 128*units.KB, nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Snapshots race against the writers; they must stay internally
	// consistent (no panics, sane ranges) even mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			snap := s.Snapshot()
			if len(snap.Shards) != 8 {
				errs <- fmt.Errorf("snapshot saw %d shards", len(snap.Shards))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.ObjectCount(); got != 160 {
		t.Fatalf("ObjectCount = %d, want 160", got)
	}
	if got := s.Snapshot().RetiredBytes; got != 160*128*units.KB {
		t.Fatalf("RetiredBytes = %d, want %d", got, 160*128*units.KB)
	}
}

// TestSameKeyChurnConservation hammers a small key set with concurrent
// replaces, deletes, and recreates, then checks byte conservation:
// every committed version's bytes end up either live or retired,
// exactly once. Each child counts its retired bytes under the engine
// mutex that orders the same-key commits and deletes, so no race can
// double-retire or lose a version.
func TestSameKeyChurnConservation(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	keys := []string{"a", "b", "c"}
	const objSize = 64 * units.KB
	var committed int64 // bytes of successfully committed versions
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := keys[(g+i)%len(keys)]
				switch g % 3 {
				case 0, 1:
					err := blob.Replace(ctx, s, key, objSize, nil)
					if err == nil {
						atomic.AddInt64(&committed, objSize)
					} else if !errors.Is(err, blob.ErrBusy) {
						errs <- err
						return
					}
				case 2:
					if err := s.Delete(ctx, key); err != nil && !errors.Is(err, blob.ErrNotFound) {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if got := snap.LiveBytes + snap.RetiredBytes; got != atomic.LoadInt64(&committed) {
		t.Fatalf("conservation violated: live %d + retired %d = %d, committed %d",
			snap.LiveBytes, snap.RetiredBytes, got, committed)
	}
	if snap.LiveBytes != s.LiveBytes() {
		t.Fatalf("snapshot live %d != store live %d", snap.LiveBytes, s.LiveBytes())
	}
}

// TestShardGroupCommitFansOutPerChild pins the parallel commit
// pipelines deterministically: 8 writers open across a 4-shard fleet
// whose children batch up to 8 with a multi-second ceiling, then commit
// at once. Each child counts only ITS open writers, so every child that
// received commits closes exactly one batch — when its last sibling
// arrives, not when the timer runs out — and the aggregated CommitStats
// sees every commit.
func TestShardGroupCommitFansOutPerChild(t *testing.T) {
	s := mkSharded(t, 4, 64*units.MB, blob.WithGroupCommit(8, conformance.GroupCommitCeiling))
	const writers = 8
	keys := make([]string, writers)
	for w := range keys {
		keys[w] = fmt.Sprintf("w%02d", w)
	}
	if d := conformance.CommitTogether(t, s, keys, 512*units.KB); d > conformance.GroupCommitCeiling/10 {
		t.Errorf("sibling commits took %v: a child waited on the timer", d)
	}
	// More than one child formed a batch: the keyspace spreads over the
	// shards and each shard batches its own commits, once.
	batchingChildren := 0
	for i := 0; i < s.NumShards(); i++ {
		st, ok := blob.CommitStatsOf(s.Shard(i))
		if !ok || st.Commits == 0 {
			continue
		}
		batchingChildren++
		if st.Batches != 1 {
			t.Errorf("shard %d closed %d batches for %d sibling commits, want 1", i, st.Batches, st.Commits)
		}
	}
	if batchingChildren < 2 {
		t.Errorf("only %d children processed commits", batchingChildren)
	}
	cs := s.CommitStats()
	if cs.Commits != writers || cs.Batches != int64(batchingChildren) {
		t.Fatalf("fleet stats %+v, want %d commits in %d batches", cs, writers, batchingChildren)
	}
	if cs.MeanBatch() <= 1 {
		t.Errorf("fleet mean batch %.2f, want > 1 (max %d)", cs.MeanBatch(), cs.MaxBatch)
	}
}

// TestLoneCommitDoesNotWait: a lone writer through the fleet lands on
// one child, is alone there, and never sleeps on that child's timer.
func TestLoneCommitDoesNotWait(t *testing.T) {
	s := mkSharded(t, 4, 64*units.MB, blob.WithGroupCommit(8, conformance.GroupCommitCeiling))
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, key))
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

// mustFileStore and mustDBStore build stores or fail the test.
func mustFileStore(t testing.TB, opts ...blob.Option) *FileStore {
	t.Helper()
	s, err := NewFileStore(vclock.New(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustDBStore(t testing.TB, opts ...blob.Option) *DBStore {
	t.Helper()
	s, err := NewDBStore(vclock.New(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newStores(t testing.TB, capacity int64, mode disk.Mode) (*FileStore, *DBStore) {
	t.Helper()
	fsStore := mustFileStore(t, blob.WithCapacity(capacity), blob.WithDiskMode(mode))
	dbStore := mustDBStore(t, blob.WithCapacity(capacity), blob.WithDiskMode(mode))
	return fsStore, dbStore
}

func eachStore(t *testing.T, capacity int64, mode disk.Mode, fn func(t *testing.T, s blob.Store)) {
	fsStore, dbStore := newStores(t, capacity, mode)
	for _, s := range []blob.Store{fsStore, dbStore} {
		t.Run(s.Name(), func(t *testing.T) { fn(t, s) })
	}
}

func TestStoreContract(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 128*units.MB, disk.DataMode, func(t *testing.T, s blob.Store) {
		data := make([]byte, 200*units.KB)
		for i := range data {
			data[i] = byte(i)
		}
		if err := blob.Put(ctx, s, "a", int64(len(data)), data); err != nil {
			t.Fatal(err)
		}
		if err := blob.Put(ctx, s, "a", int64(len(data)), data); !errors.Is(err, blob.ErrAlreadyExists) {
			t.Fatalf("duplicate Put = %v, want ErrAlreadyExists", err)
		}
		n, got, err := blob.Get(ctx, s, "a")
		if err != nil || n != int64(len(data)) {
			t.Fatalf("Get = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("Get payload mismatch")
		}
		if info, err := s.Stat(ctx, "a"); err != nil || info.Size != int64(len(data)) {
			t.Fatalf("Stat = %+v, %v", info, err)
		}
		if s.ObjectCount() != 1 || s.LiveBytes() != int64(len(data)) {
			t.Fatalf("count=%d live=%d", s.ObjectCount(), s.LiveBytes())
		}

		// Replace with different contents.
		data2 := make([]byte, 100*units.KB)
		for i := range data2 {
			data2[i] = byte(255 - i%256)
		}
		if err := blob.Replace(ctx, s, "a", int64(len(data2)), data2); err != nil {
			t.Fatal(err)
		}
		_, got, _ = blob.Get(ctx, s, "a")
		if !bytes.Equal(got, data2) {
			t.Fatal("Replace payload mismatch")
		}
		if s.LiveBytes() != int64(len(data2)) {
			t.Fatalf("LiveBytes after replace = %d", s.LiveBytes())
		}

		if err := s.Delete(ctx, "a"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := blob.Get(ctx, s, "a"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
		}
		if err := s.Delete(ctx, "a"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("double Delete = %v, want ErrNotFound", err)
		}
		if s.ObjectCount() != 0 || s.LiveBytes() != 0 {
			t.Fatalf("count=%d live=%d after delete", s.ObjectCount(), s.LiveBytes())
		}
	})
}

func TestStoreRunsAndTags(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 128*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		for i := 0; i < 5; i++ {
			if err := blob.Put(ctx, s, fmt.Sprintf("o%d", i), 256*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		seenRuns := map[string]bool{}
		s.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
			_ = runs
			seenRuns[key] = true
			if bytes != 256*units.KB {
				t.Fatalf("object %s reported %d bytes", key, bytes)
			}
		})
		if len(seenRuns) != 5 {
			t.Fatalf("EachObjectRuns visited %d objects", len(seenRuns))
		}
		seenTags := map[uint32]bool{}
		s.EachObjectTag(func(key string, tag uint32) {
			if tag == 0 {
				t.Fatalf("object %s has zero tag", key)
			}
			if seenTags[tag] {
				t.Fatalf("duplicate tag %d", tag)
			}
			seenTags[tag] = true
		})
		if len(seenTags) != 5 {
			t.Fatalf("EachObjectTag visited %d objects", len(seenTags))
		}
	})
}

func TestAgeTracker(t *testing.T) {
	ctx := context.Background()
	fsStore, _ := newStores(t, 128*units.MB, disk.MetadataMode)
	tr := NewAgeTracker(fsStore)
	const size = 1 * units.MB
	for i := 0; i < 10; i++ {
		if err := blob.Put(ctx, fsStore, fmt.Sprintf("o%d", i), size, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Age() != 0 {
		t.Fatalf("age after puts = %g", tr.Age())
	}
	// Replace every object once: age 1 ("safe writes per object").
	for i := 0; i < 10; i++ {
		if err := blob.Replace(ctx, fsStore, fmt.Sprintf("o%d", i), size, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Age(); got != 1 {
		t.Fatalf("age after one overwrite each = %g, want 1", got)
	}
	// Again: age 2.
	for i := 0; i < 10; i++ {
		if err := blob.Replace(ctx, fsStore, fmt.Sprintf("o%d", i), size, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Age(); got != 2 {
		t.Fatalf("age = %g, want 2", got)
	}
	// Deletes retire bytes too.
	if err := fsStore.Delete(ctx, "o0"); err != nil {
		t.Fatal(err)
	}
	wantAge := float64(21*size) / float64(9*size)
	if got := tr.Age(); got != wantAge {
		t.Fatalf("age after delete = %g, want %g", got, wantAge)
	}
}

// TestAgeTrackerChargesAtCommit pins the accounting rule: a write
// counts once it commits, and a write the store refuses — an object
// that does not fit, a create of a live key — counts nothing.
func TestAgeTrackerChargesAtCommit(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 16*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		check := func(what string, retired, live int64) {
			t.Helper()
			if s.RetiredBytes() != retired || s.LiveBytes() != live {
				t.Fatalf("%s: retired=%d live=%d, want %d and %d",
					what, s.RetiredBytes(), s.LiveBytes(), retired, live)
			}
		}
		if err := blob.Put(ctx, s, "a", 1*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		check("put", 0, 1*units.MB)
		if err := blob.Replace(ctx, s, "a", 2*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		check("replace", 1*units.MB, 2*units.MB)
		if err := blob.Replace(ctx, s, "a", 64*units.MB, nil); !errors.Is(err, blob.ErrNoSpaceLeft) {
			t.Fatalf("oversized replace = %v, want ErrNoSpaceLeft", err)
		}
		check("refused replace", 1*units.MB, 2*units.MB)
		if err := blob.Put(ctx, s, "a", 1*units.MB, nil); !errors.Is(err, blob.ErrAlreadyExists) {
			t.Fatalf("put of a live key = %v, want ErrAlreadyExists", err)
		}
		check("refused put", 1*units.MB, 2*units.MB)
		if err := blob.Put(ctx, s, "b", 1*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		check("second put", 1*units.MB, 3*units.MB)
		if err := blob.Replace(ctx, s, "fresh", 1*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		check("create by replace", 1*units.MB, 4*units.MB)
		if err := s.Delete(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("delete of an absent key = %v, want ErrNotFound", err)
		}
		check("refused delete", 1*units.MB, 4*units.MB)
	})
}

// TestAgeTrackerDeleteDuringReplaceStream pins that a delete landing
// between a replace stream's open and its commit retires the old
// version exactly once: the commit then publishes over nothing and
// retires 0.
func TestAgeTrackerDeleteDuringReplaceStream(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 128*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		if err := blob.Put(ctx, s, "a", 1*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		w, err := s.Replace(ctx, "a", 2*units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(ctx, "a"); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(2*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := s.RetiredBytes(); got != 1*units.MB {
			t.Fatalf("old version retired twice: retired=%d, want %d", got, 1*units.MB)
		}
		if s.LiveBytes() != 2*units.MB {
			t.Fatalf("live = %d, want %d", s.LiveBytes(), 2*units.MB)
		}
	})
}

func TestAgeIndependentOfVolumeSize(t *testing.T) {
	// §4.4: "Storage age is independent of volume size and update
	// strategy." Same object count and churn on different volumes must
	// report identical ages.
	ctx := context.Background()
	ages := make([]float64, 0, 2)
	for _, capacity := range []int64{128 * units.MB, 512 * units.MB} {
		s := mustFileStore(t, blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
		for i := 0; i < 8; i++ {
			if err := blob.Put(ctx, s, fmt.Sprintf("o%d", i), 1*units.MB, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := blob.Replace(ctx, s, fmt.Sprintf("o%d", i%8), 1*units.MB, nil); err != nil {
				t.Fatal(err)
			}
		}
		ages = append(ages, NewAgeTracker(s).Age())
	}
	if ages[0] != ages[1] {
		t.Fatalf("storage age differed across volume sizes: %g vs %g", ages[0], ages[1])
	}
}

// TestTempLookalikeKeySurvives pins that a key named like a safe-write
// temp file is an ordinary key on both backends: a committed "a.tmp~"
// leaves "a" free to create, "b.tmp~" is absent while "b" is written
// and deleting it leaves b's writer alone, and Recover keeps a
// committed "c.tmp~".
func TestTempLookalikeKeySurvives(t *testing.T) {
	ctx := context.Background()
	const size = 4 * units.KB
	eachStore(t, 64*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		for _, key := range []string{"a.tmp~", "a", "c.tmp~"} {
			if err := blob.Put(ctx, s, key, size, nil); err != nil {
				t.Fatalf("Put %s: %v", key, err)
			}
		}
		if err := blob.Replace(ctx, s, "a", size, nil); err != nil {
			t.Fatalf("Replace a beside a committed a.tmp~: %v", err)
		}

		w, err := s.Create(ctx, "b", 2*size)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(size, nil); err != nil {
			t.Fatal(err)
		}
		if info, err := s.Stat(ctx, "b.tmp~"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("Stat b.tmp~ while b is written = %+v, %v; want ErrNotFound", info, err)
		}
		if err := s.Delete(ctx, "b.tmp~"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("Delete b.tmp~ = %v, want ErrNotFound", err)
		}
		if err := w.Append(size, nil); err != nil {
			t.Fatalf("b's writer after Delete b.tmp~: %v", err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}

		if rec, ok := blob.As[interface{ Recover() int }](s); ok {
			if n := rec.Recover(); n != 0 {
				t.Fatalf("Recover swept %d files with no writer open", n)
			}
		}
		want := []string{"a", "a.tmp~", "b", "c.tmp~"}
		if keys := s.Keys(); !slices.Equal(slices.Sorted(slices.Values(keys)), want) {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
		if s.ObjectCount() != len(want) || s.LiveBytes() != 5*size {
			t.Fatalf("count=%d live=%d, want %d and %d", s.ObjectCount(), s.LiveBytes(), len(want), 5*size)
		}
		if err := blob.Put(ctx, s, "c.tmp~", size, nil); !errors.Is(err, blob.ErrAlreadyExists) {
			t.Fatalf("Put c.tmp~ again = %v, want ErrAlreadyExists", err)
		}
		for _, key := range want {
			if err := s.Delete(ctx, key); err != nil {
				t.Fatalf("Delete %s: %v", key, err)
			}
		}
		if s.ObjectCount() != 0 || s.LiveBytes() != 0 {
			t.Fatalf("count=%d live=%d after deleting every key", s.ObjectCount(), s.LiveBytes())
		}
	})
}

func TestSafeReplaceNeverLosesOldVersionOnFailure(t *testing.T) {
	// Fill a small store so a Replace cannot fit: old version must
	// survive on both backends.
	ctx := context.Background()
	eachStore(t, 16*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		if err := blob.Put(ctx, s, "a", 6*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		if err := blob.Put(ctx, s, "b", 6*units.MB, nil); err != nil {
			t.Fatal(err)
		}
		err := blob.Replace(ctx, s, "a", 6*units.MB, nil)
		if err == nil {
			t.Skip("store had room; semantics not exercised")
		}
		if !errors.Is(err, blob.ErrNoSpaceLeft) {
			t.Fatalf("failed replace = %v, want ErrNoSpaceLeft", err)
		}
		if info, err := s.Stat(ctx, "a"); err != nil || info.Size != 6*units.MB {
			t.Fatalf("old version damaged: info=%+v err=%v", info, err)
		}
	})
}

// TestDataModePayloadMovesOnce pins what a payload byte costs in memory
// on a data-mode FileStore. A whole-object read allocates no payload: the
// result is a view of the file's bytes. A write whose first append
// carries at least half the object allocates the payload once, at the
// declared size, however the appends are cut (fragserve appends 256 KB
// at a time) — while storeData grew its buffer request by request a
// 384 KB write allocated about 2.3 times its size. A writer that
// declares far more than it sends holds twice what it sent, not what it
// declared.
func TestDataModePayloadMovesOnce(t *testing.T) {
	ctx := context.Background()
	const size = 384 * units.KB
	s := mustFileStore(t, blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.DataMode))
	data := bytes.Repeat([]byte{7}, int(size))
	if err := blob.Put(ctx, s, "obj", size, data); err != nil {
		t.Fatal(err)
	}
	// perRun is the mean bytes and allocations of one call; the first
	// call fills the handle pools and is not counted.
	perRun := func(f func()) (bytes int64, allocs float64) {
		const runs = 20
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call on top of runs.
		return int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), allocs
	}

	b, n := perRun(func() {
		if _, body, err := blob.Get(ctx, s, "obj"); err != nil || int64(len(body)) != size {
			t.Fatalf("read %d bytes, err %v", len(body), err)
		}
	})
	if b > 4*units.KB || n > 1 {
		t.Errorf("whole-object read of %d bytes allocates %d bytes in %.0f allocations", size, b, n)
	}

	// write replaces obj with a declared-byte writer that appends sent
	// bytes in appends of at most chunk, then commits or aborts.
	write := func(declared, sent, chunk int64) {
		w, err := s.Replace(ctx, "obj", declared)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < sent; off += chunk {
			if err := w.Append(min(chunk, sent-off), data[:min(chunk, sent-off)]); err != nil {
				t.Fatal(err)
			}
		}
		if sent < declared {
			err = w.Abort()
		} else {
			err = w.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ size, chunk int64 }{
		{size, size}, {size, 256 * units.KB}, {size, size / 2}, {128 * units.KB, 256 * units.KB},
	} {
		if b, _ = perRun(func() { write(c.size, c.size, c.chunk) }); b > c.size+16*units.KB {
			t.Errorf("write of %d bytes in %d-byte appends allocates %d bytes, want one payload", c.size, c.chunk, b)
		}
	}
	if b, _ = perRun(func() { write(48*units.MB, 1, 1) }); b > 16*units.KB {
		t.Errorf("a 48 MB writer that appends one byte allocates %d bytes", b)
	}
}

// TestCompactObjectInvalidatesPinnedReader pins the store-level version
// discipline: a reader opened before a compaction rewrite fails typed
// instead of reading the relocated clusters.
func TestCompactObjectInvalidatesPinnedReader(t *testing.T) {
	ctx := context.Background()
	s := mustFileStore(t, blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err := blob.Put(ctx, s, "a", units.MB, nil); err != nil {
		t.Fatal(err)
	}
	s.Volume().ShatterFiles(4)

	r, err := s.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	n, err := s.CompactObject(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if n != units.MB {
		t.Fatalf("compaction moved %d bytes, want %d", n, units.MB)
	}
	if _, err := r.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("pinned reader survived relocation: err = %v, want ErrNotFound", err)
	}
	// A fresh open sees the contiguous rewrite.
	if _, _, err := blob.Get(ctx, s, "a"); err != nil {
		t.Fatalf("post-compaction read: %v", err)
	}
	// An already-contiguous object is a no-op, not an error.
	if n, err := s.CompactObject(ctx, "a"); err != nil || n != 0 {
		t.Fatalf("second compaction = %d, %v; want 0, nil", n, err)
	}
	// Missing keys fail typed.
	if _, err := s.CompactObject(ctx, "missing"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("compacting missing key = %v, want ErrNotFound", err)
	}
}

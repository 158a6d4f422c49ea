package core_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestPackCrashRecovery pins the crash-mid-pack story at the store
// level: an armed crash tears the pack after its clusters are written
// but before any member switches over, and Recover sweeps the orphan.
func TestPackCrashRecovery(t *testing.T) {
	ctx := context.Background()
	s, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 50*units.KB)
	for i := range data {
		data[i] = byte(i % 199)
	}
	keys := []string{"pk-a", "pk-b", "pk-c"}
	for _, k := range keys {
		if err := blob.Put(ctx, s, k, int64(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	s.Volume().FlushLog()
	free := s.Volume().FreeBytes()

	s.ArmPackCrash()
	if _, err := s.PackObjects(ctx, keys); !errors.Is(err, blob.ErrCrashed) {
		t.Fatalf("armed pack err = %v, want ErrCrashed", err)
	}
	// No member switched over: every object still reads its old extents.
	for _, k := range keys {
		if _, got, err := blob.Get(ctx, s, k); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s unreadable after mid-pack crash: %v", k, err)
		}
	}
	if s.Volume().PackCount() != 0 {
		t.Fatalf("pack count = %d after crash, want 0", s.Volume().PackCount())
	}
	if n := s.Recover(); n != 0 {
		t.Fatalf("Recover() = %d temp files, want 0", n)
	}
	if got := s.Volume().FreeBytes(); got != free {
		t.Fatalf("free bytes = %d after recovery, want %d (orphan pack leaked)", got, free)
	}
	// The crash armed exactly one pack; the next attempt succeeds.
	packed, err := s.PackObjects(ctx, keys)
	if err != nil || len(packed) != len(keys) {
		t.Fatalf("re-pack = %v, %v; want all %d keys", packed, err, len(keys))
	}
	for _, k := range keys {
		if _, got, err := blob.Get(ctx, s, k); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s unreadable after pack: %v", k, err)
		}
	}
}

// TestCompactObjectInvalidatesPinnedReader pins the store-level version
// discipline: a reader opened before a compaction rewrite fails typed
// instead of reading the relocated clusters.
func TestCompactObjectInvalidatesPinnedReader(t *testing.T) {
	ctx := context.Background()
	s, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
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

package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
)

// TestAccessors exercises the informational surface of both stores.
func TestAccessors(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 128*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		if s.Clock() == nil {
			t.Fatal("nil clock")
		}
		if s.CapacityBytes() <= 0 || s.CapacityBytes() > 128*units.MB {
			t.Fatalf("capacity %d", s.CapacityBytes())
		}
		free0 := s.FreeBytes()
		if free0 <= 0 || free0 > s.CapacityBytes() {
			t.Fatalf("free %d of %d", free0, s.CapacityBytes())
		}
		for _, k := range []string{"b", "a", "c"} {
			if err := blob.Put(ctx, s, k, 256*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		if s.FreeBytes() >= free0 {
			t.Fatal("puts did not consume space")
		}
		keys := s.Keys()
		sort.Strings(keys)
		if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
			t.Fatalf("keys = %v", keys)
		}
	})
}

func TestBackendEscapeHatches(t *testing.T) {
	fsStore, dbStore := newStores(t, 64*units.MB, disk.MetadataMode)
	if fsStore.Volume() == nil {
		t.Fatal("FileStore.Volume nil")
	}
	if dbStore.Engine() == nil {
		t.Fatal("DBStore.Engine nil")
	}
	if fsStore.Name() == dbStore.Name() {
		t.Fatal("backends share a name")
	}
}

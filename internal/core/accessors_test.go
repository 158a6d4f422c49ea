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
		u0 := s.Usage()
		if u0.CapacityBytes <= 0 || u0.CapacityBytes > 128*units.MB {
			t.Fatalf("capacity %d", u0.CapacityBytes)
		}
		if u0.FreeBytes <= 0 || u0.FreeBytes > u0.CapacityBytes {
			t.Fatalf("free %d of %d", u0.FreeBytes, u0.CapacityBytes)
		}
		for _, k := range []string{"b", "a", "c"} {
			if err := blob.Put(ctx, s, k, 256*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		if s.Usage().FreeBytes >= u0.FreeBytes {
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

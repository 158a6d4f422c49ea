package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
)

// TestOwnerMapIsOptIn: no drive of a store keeps the per-cluster owner
// map unless blob.WithOwnerMap asks, and then only the data drive does
// (the metadata database's drives and the log drive only ever write tag
// 0). Without it the store writes, commits and reads the same.
func TestOwnerMapIsOptIn(t *testing.T) {
	ctx := context.Background()
	payload := make([]byte, 300*units.KB)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	for _, optIn := range []bool{false, true} {
		opts := []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithDiskMode(disk.DataMode), blob.WithGroupCommit(4, 0)}
		if optIn {
			opts = append(opts, blob.WithOwnerMap())
		}
		fsStore, dbStore := mustFileStore(t, opts...), mustDBStore(t, opts...)
		stores := []struct {
			s      blob.Store
			data   *disk.Drive
			others []*disk.Drive
		}{
			{fsStore, fsStore.vol.Drive(), []*disk.Drive{fsStore.metaDB.DataDrive(), fsStore.metaDB.LogDrive()}},
			{dbStore, dbStore.eng.DataDrive(), []*disk.Drive{dbStore.eng.LogDrive()}},
		}
		for _, st := range stores {
			t.Run(fmt.Sprintf("%s/ownermap=%v", st.s.Name(), optIn), func(t *testing.T) {
				if got := st.data.HasOwnerMap(); got != optIn {
					t.Fatalf("data drive HasOwnerMap = %v, want %v", got, optIn)
				}
				for i, d := range st.others {
					if d == nil || d.HasOwnerMap() {
						t.Fatalf("drive %d besides the data drive: %v, owner map %v", i, d, d != nil && d.HasOwnerMap())
					}
				}
				if err := blob.Put(ctx, st.s, "a", int64(len(payload)), payload); err != nil {
					t.Fatal(err)
				}
				if err := blob.Replace(ctx, st.s, "a", int64(len(payload)/2), payload[:len(payload)/2]); err != nil {
					t.Fatal(err)
				}
				if err := blob.Put(ctx, st.s, "b", int64(len(payload)), payload); err != nil {
					t.Fatal(err)
				}
				for key, want := range map[string][]byte{"a": payload[:len(payload)/2], "b": payload} {
					if _, got, err := blob.Get(ctx, st.s, key); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("Get(%s) = %d bytes, %v; want the %d bytes written", key, len(got), err, len(want))
					}
				}
				if err := st.s.Delete(ctx, "a"); err != nil {
					t.Fatal(err)
				}
				if st.s.ObjectCount() != 1 || st.s.LiveBytes() != int64(len(payload)) {
					t.Fatalf("after delete: count=%d live=%d", st.s.ObjectCount(), st.s.LiveBytes())
				}
			})
		}
	}
}

package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/units"
)

// makeSmallFiles creates n sub-cluster files named p0..p{n-1} with
// distinct payloads and returns their names.
func makeSmallFiles(t *testing.T, v *Volume, n int, size int64) []string {
	t.Helper()
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "-small"
		f, err := v.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(size, fillBytes(size, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

func TestPackFilesCoalesces(t *testing.T) {
	v := newVolume(64*units.MB, disk.DataMode)
	size := int64(1200) // well below the 4 KB cluster: each file wastes most of one
	names := makeSmallFiles(t, v, 8, size)

	rep, err := v.PackFiles(names, PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Members != 8 || len(rep.Packed) != 8 {
		t.Fatalf("packed %d members (%d names), want 8", rep.Members, len(rep.Packed))
	}
	if rep.Bytes != 8*size {
		t.Fatalf("pack bytes = %d, want %d", rep.Bytes, 8*size)
	}
	// 8 × 1200 B = 9600 B fits in 3 clusters instead of 8 per-file ceilings.
	if want := units.CeilDiv(8*size, v.ClusterSize()); rep.DataClusters != want {
		t.Fatalf("data clusters = %d, want %d", rep.DataClusters, want)
	}
	if v.PackCount() != 1 {
		t.Fatalf("pack count = %d, want 1", v.PackCount())
	}
	if v.PackedLiveBytes() != 8*size {
		t.Fatalf("packed live bytes = %d, want %d", v.PackedLiveBytes(), 8*size)
	}
	// Payloads survive the relocation byte for byte, via both read paths.
	for i, name := range names {
		f, err := v.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Packed() {
			t.Fatalf("%s not packed", name)
		}
		want := fillBytes(size, byte(i+1))
		if got := f.ReadAll(); !bytes.Equal(got, want) {
			t.Fatalf("%s ReadAll mismatch after pack", name)
		}
		got, err := f.ReadAt(100, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[100:400]) {
			t.Fatalf("%s ReadAt mismatch after pack", name)
		}
		if f.Fragments() != 1 {
			t.Fatalf("%s fragments = %d after pack, want 1", name, f.Fragments())
		}
	}
}

func TestPackFilesSkipsIneligible(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	names := makeSmallFiles(t, v, 3, 1000)
	if _, err := v.PackFiles(names, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	// Already-packed members, missing names, and duplicates leave fewer
	// than two eligible files: a no-op, not an error.
	rep, err := v.PackFiles(append(names, "missing", names[0]), PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Members != 0 || len(rep.Packed) != 0 {
		t.Fatalf("repack coalesced %d members, want 0", rep.Members)
	}
	if v.PackCount() != 1 {
		t.Fatalf("pack count = %d, want 1", v.PackCount())
	}
}

func TestPackReclaimedWhenLastMemberDies(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	names := makeSmallFiles(t, v, 4, 1500)
	rep, err := v.PackFiles(names, PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names[:3] {
		if err := v.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	v.FlushLog()
	// Survivors share the pack's clusters: the extent stays allocated.
	if v.PackCount() != 1 {
		t.Fatalf("pack count = %d with a live member, want 1", v.PackCount())
	}
	if got := v.PackedLiveBytes(); got != 1500 {
		t.Fatalf("packed live bytes = %d with one member, want 1500", got)
	}
	free := v.FreeBytes()
	if err := v.Delete(names[3]); err != nil {
		t.Fatal(err)
	}
	v.FlushLog()
	if v.PackCount() != 0 {
		t.Fatalf("pack count = %d after last member died, want 0", v.PackCount())
	}
	// The last death reclaims the whole pack extent (plus whatever the
	// metadata index shrink returns on top).
	reclaim := (rep.DataClusters + rep.IndexClusters) * v.ClusterSize()
	if got := v.FreeBytes(); got < free+reclaim {
		t.Fatalf("free bytes = %d after pack reclaim, want >= %d", got, free+reclaim)
	}
}

func TestPackMemberRename(t *testing.T) {
	v := newVolume(64*units.MB, disk.DataMode)
	names := makeSmallFiles(t, v, 2, 900)
	if _, err := v.PackFiles(names, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename(names[0], "renamed"); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("renamed")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed() {
		t.Fatal("renamed member lost its pack")
	}
	if got := f.ReadAll(); !bytes.Equal(got, fillBytes(900, 1)) {
		t.Fatal("renamed member payload mismatch")
	}
	// The pack's member table follows the rename, so deleting under the
	// new name still reclaims the pack.
	if err := v.Delete("renamed"); err != nil {
		t.Fatal(err)
	}
	if err := v.Delete(names[1]); err != nil {
		t.Fatal(err)
	}
	if v.PackCount() != 0 {
		t.Fatalf("pack count = %d after deleting renamed members, want 0", v.PackCount())
	}
}

func TestPackCrashRecovery(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	names := makeSmallFiles(t, v, 4, 2000)
	v.FlushLog()
	free := v.FreeBytes()

	_, err := v.PackFiles(names, PackOptions{Crash: true})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-armed pack err = %v, want ErrCrashed", err)
	}
	// The torn pack hit disk but no member switched over: files read
	// their old extents, and the orphan clusters are held until Recover.
	for _, name := range names {
		f, ok := v.Lookup(name)
		if !ok || f.Packed() {
			t.Fatalf("%s packed after mid-pack crash", name)
		}
	}
	if v.PackCount() != 0 {
		t.Fatalf("pack count = %d after crash, want 0", v.PackCount())
	}
	v.Recover()
	if got := v.FreeBytes(); got != free {
		t.Fatalf("free bytes = %d after recovery, want %d (orphan pack leaked)", got, free)
	}
	// The volume is fully usable: the same pack succeeds afterwards.
	if _, err := v.PackFiles(names, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	if v.PackCount() != 1 {
		t.Fatalf("pack count = %d after re-pack, want 1", v.PackCount())
	}
}

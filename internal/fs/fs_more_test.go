package fs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

func TestAppendToClosedFile(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	f.Append(64*units.KB, nil)
	f.Close()
	if err := f.Append(64*units.KB, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAppendRejected(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	if err := f.Append(0, nil); err == nil {
		t.Fatal("zero append succeeded")
	}
	if err := f.Append(-5, nil); err == nil {
		t.Fatal("negative append succeeded")
	}
}

func TestSizeHintAfterDataFails(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	f.Append(4*units.KB, nil)
	if err := f.SetSizeHint(1 * units.MB); err == nil {
		t.Fatal("late size hint accepted")
	}
}

func TestSubClusterAppendsShareCluster(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	// Four 1KB appends fit one 4KB cluster.
	for i := 0; i < 4; i++ {
		if err := f.Append(1*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if f.Size() != 4*units.KB {
		t.Fatalf("size = %d", f.Size())
	}
	if got := extent.SumLen(f.Runs()); got != 1 {
		t.Fatalf("allocated %d clusters, want 1", got)
	}
}

func TestReadAtChargesOnlyCoveringRuns(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	f.Append(1*units.MB, nil)
	f.Close()
	v.Drive().ResetStats()
	if _, err := f.ReadAt(0, 4*units.KB); err != nil {
		t.Fatal(err)
	}
	s := v.Drive().Stats()
	if s.BytesRead > 8*units.KB {
		t.Fatalf("4KB read touched %d bytes", s.BytesRead)
	}
}

func TestReadAllCountsOneRequestPerFragment(t *testing.T) {
	v := newVolume(32*units.MB, disk.MetadataMode)
	// Shatter free space so a file fragments.
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := v.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(128*units.KB, nil); err != nil {
			v.Delete(name)
			break
		}
		f.Close()
		names = append(names, name)
	}
	for i := 0; i < len(names); i += 2 {
		v.Delete(names[i])
	}
	v.FlushLog()
	g, _ := v.Create("frag")
	g.Append(512*units.KB, nil)
	g.Close()
	if g.Fragments() < 2 {
		t.Skip("did not fragment")
	}
	v.Drive().ResetStats()
	g.ReadAll()
	if got := int(v.Drive().Stats().Reads); got != g.Fragments() {
		t.Fatalf("ReadAll issued %d requests for %d fragments", got, g.Fragments())
	}
}

func TestLogFlushCadence(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode)
	v := Format(d, Config{})
	for i := 0; i < 2*LogFlushOps; i++ { // create+close = 2 metadata ops each
		f, _ := v.Create(fmt.Sprintf("f%d", i))
		f.Append(4*units.KB, nil)
		f.Close()
	}
	if got := v.Stats().LogFlushes; got != 4 {
		t.Fatalf("%d metadata ops made %d log flushes, want 4", 4*LogFlushOps, got)
	}
}

// TestMetadataZoneTakesOnePercent: Format reserves the lowest 1% of the
// volume's clusters for the MFT zone, and CapacityBytes leaves it out.
func TestMetadataZoneTakesOnePercent(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	clusters := v.Drive().Geometry().Clusters
	if want := clusters / 100; v.metaStart != 0 || v.metaLen != want {
		t.Fatalf("MFT zone [%d,+%d), want [0,+%d)", v.metaStart, v.metaLen, want)
	}
	if got, want := v.CapacityBytes(), (clusters-clusters/100)*v.ClusterSize(); got != want {
		t.Fatalf("CapacityBytes = %d, want %d", got, want)
	}
}

func TestMetadataZoneNotUsedForData(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	f.Append(4*units.MB, nil)
	f.Close()
	for _, r := range f.Runs() {
		if r.Start < v.metaStart+v.metaLen {
			t.Fatalf("file data run %v inside the MFT zone [0,%d)", r, v.metaLen)
		}
	}
}

func TestRecoverFlushesLog(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	replaceFile(t, v, "a", 1*units.MB)
	free := v.FreeBytes()
	v.Delete("a")
	if v.FreeBytes() != free {
		// Deletion quarantined; Recover must release it.
		v.Recover()
		if v.FreeBytes() <= free {
			t.Fatal("Recover did not flush the log")
		}
	}
}

func TestVolumeStringer(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	if s := v.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestDeleteMissing(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	if err := v.Delete("ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := v.Rename("ghost", "other"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename err = %v", err)
	}
}

func TestIndexBufferChurnBalanced(t *testing.T) {
	// Steady create/delete churn must not leak index buffers.
	v := newVolume(64*units.MB, disk.MetadataMode)
	for i := 0; i < 50; i++ {
		f, _ := v.Create(fmt.Sprintf("f%d", i))
		f.Append(64*units.KB, nil)
		f.Close()
	}
	buffersAt50 := len(v.indexBufs)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("g%d", i)
		f, _ := v.Create(name)
		f.Append(64*units.KB, nil)
		f.Close()
		v.Delete(name)
	}
	if got := len(v.indexBufs); got > buffersAt50+2 {
		t.Fatalf("index buffers leaked: %d -> %d", buffersAt50, got)
	}
}

// TestCheckInvariants pins the volume's cluster books: after churn,
// shattering, a compaction and a delete whose clusters await the log,
// every cluster is held once; a buffer that doubles a file's cluster or
// a leaked free run makes the check panic.
func TestCheckInvariants(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	for i := 0; i < 40; i++ {
		replaceFile(t, v, fmt.Sprintf("f%d", i%12), int64(1+i%5)*100*units.KB)
	}
	v.ShatterFiles(2)
	if _, ok := v.CompactFile("f3"); !ok {
		t.Fatal("f3 was not compacted")
	}
	if err := v.Delete("f4"); err != nil {
		t.Fatal(err)
	}
	if v.rc.PendingClusters() == 0 {
		t.Fatal("fixture: no clusters await the log")
	}
	v.CheckInvariants()

	mustPanic := func(what string, corrupt func(v *Volume)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("CheckInvariants accepted %s", what)
			}
		}()
		corrupt(v)
		v.CheckInvariants()
	}
	f, _ := v.Lookup("f0")
	mustPanic("a cluster held twice", func(v *Volume) {
		v.indexBufs = append(v.indexBufs, extent.Run{Start: f.runs[0].Start, Len: 1})
	})
	v.indexBufs = v.indexBufs[:len(v.indexBufs)-1]
	v.CheckInvariants()
	mustPanic("a leaked run", func(v *Volume) {
		if _, err := v.rc.Alloc(1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchDefersAndCoalescesMetadataForces pins the volume half of
// group commit: inside a BeginBatch/EndBatch bracket, MFT record writes
// are deferred and deduplicated (Close and Rename of one file share one
// record), the periodic log flush waits for batch end, and the deferred
// work is charged exactly once when the batch closes.
func TestBatchDefersAndCoalescesMetadataForces(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	base := v.Stats()

	v.BeginBatch()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("o%d", i)
		f, err := v.Create(TempName(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := v.Rename(TempName(name), name); err != nil {
			t.Fatal(err)
		}
	}
	mid := v.Stats()
	if got := mid.MetaWrites - base.MetaWrites; got != 0 {
		t.Fatalf("%d MFT writes forced inside the batch, want 0", got)
	}
	if mid.LogFlushes != base.LogFlushes {
		t.Fatal("log flushed inside the batch")
	}
	v.EndBatch()
	after := v.Stats()
	// Three files, each touching one MFT record across create, close,
	// and rename: at most one coalesced write per record, so strictly
	// fewer forces than the nine record updates that happened.
	forced := after.MetaWrites - base.MetaWrites
	if forced == 0 || forced > 3 {
		t.Fatalf("EndBatch forced %d MFT writes, want 1..3", forced)
	}

	// The same protocol without a batch forces every record update.
	v2 := newVolume(64*units.MB, disk.MetadataMode)
	base2 := v2.Stats()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("o%d", i)
		f, _ := v2.Create(TempName(name))
		_ = f.Append(256*units.KB, nil)
		_ = f.Close()
		_ = v2.Rename(TempName(name), name)
	}
	unbatched := v2.Stats().MetaWrites - base2.MetaWrites
	if forced >= unbatched {
		t.Fatalf("batched forces (%d) not below unbatched (%d)", forced, unbatched)
	}
}

// TestBatchNests pins that nested batches force only at the outermost
// EndBatch.
func TestBatchNests(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	base := v.Stats().MetaWrites
	v.BeginBatch()
	v.BeginBatch()
	if _, err := v.Create("a"); err != nil {
		t.Fatal(err)
	}
	v.EndBatch()
	if got := v.Stats().MetaWrites - base; got != 0 {
		t.Fatalf("inner EndBatch forced %d writes", got)
	}
	v.EndBatch()
	if got := v.Stats().MetaWrites - base; got != 1 {
		t.Fatalf("outer EndBatch forced %d writes, want 1", got)
	}
}

// TestSmallFilesOwnTheirClusters pins the one file layout at the sizes
// a sub-cluster or single-extent object takes: each file keeps its own
// tag and one run no other file shares, reads back byte for byte, keeps
// runs and payload across a rename, and returns every cluster it held
// once it is deleted and the log flushes.
func TestSmallFilesOwnTheirClusters(t *testing.T) {
	for _, size := range []int64{1200, 4*units.KB - 1, 4 * units.KB, 64 * units.KB, 256 * units.KB} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			v := newVolume(64*units.MB, disk.DataMode)
			v.FlushLog()
			free := v.FreeBytes()
			const n = 4
			owner := map[int64]string{}
			tags := map[uint32]bool{}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("s%d", i)
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
				if f.Fragments() != 1 {
					t.Fatalf("%s has %d fragments, want 1", name, f.Fragments())
				}
				if tags[f.Tag()] {
					t.Fatalf("%s reuses live tag %d", name, f.Tag())
				}
				tags[f.Tag()] = true
				for _, r := range f.Runs() {
					for c := r.Start; c < r.Start+r.Len; c++ {
						if other, taken := owner[c]; taken {
							t.Fatalf("%s and %s share cluster %d", other, name, c)
						}
						owner[c] = name
					}
				}
			}
			f, err := v.Open("s0")
			if err != nil {
				t.Fatal(err)
			}
			runs := append([]extent.Run(nil), f.Runs()...)
			if err := v.Rename("s0", "moved"); err != nil {
				t.Fatal(err)
			}
			g, err := v.Open("moved")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g.Runs(), runs) {
				t.Fatalf("rename moved the file: runs %v, want %v", g.Runs(), runs)
			}
			for i, name := range []string{"moved", "s1", "s2", "s3"} {
				f, err := v.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				want := fillBytes(size, byte(i+1))
				if !bytes.Equal(f.ReadAll(), want) {
					t.Fatalf("%s ReadAll mismatch", name)
				}
				got, err := f.ReadAt(size/3, size/2)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[size/3:size/3+size/2]) {
					t.Fatalf("%s ReadAt mismatch", name)
				}
				if err := v.Delete(name); err != nil {
					t.Fatal(err)
				}
			}
			v.FlushLog()
			if got := v.FreeBytes(); got != free {
				t.Fatalf("free bytes = %d after deleting every file, want %d", got, free)
			}
		})
	}
}

// TestRecoverReclaimsTornWrite pins crash recovery on the one layout: a
// safe write that never reached its rename leaves a temp file holding
// clusters; Recover deletes it, returns its space, and leaves the live
// file it would have replaced intact.
func TestRecoverReclaimsTornWrite(t *testing.T) {
	v := newVolume(64*units.MB, disk.DataMode)
	f, err := v.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	want := fillBytes(2000, 7)
	if err := f.Append(int64(len(want)), want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	v.FlushLog()
	free := v.FreeBytes()
	torn, err := v.Create(TempName("obj"))
	if err != nil {
		t.Fatal(err)
	}
	if err := torn.Append(3000, fillBytes(3000, 9)); err != nil {
		t.Fatal(err)
	}
	if v.FreeBytes() >= free {
		t.Fatal("torn write consumed no space")
	}
	if got := v.Recover(); got != 1 {
		t.Fatalf("Recover removed %d temps, want 1", got)
	}
	if got := v.FreeBytes(); got != free {
		t.Fatalf("free bytes = %d after recovery, want %d", got, free)
	}
	if _, err := v.Open(TempName("obj")); !errors.Is(err, ErrNotExist) {
		t.Fatalf("temp survived Recover: err = %v", err)
	}
	g, err := v.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.ReadAll(), want) {
		t.Fatal("live file changed across Recover")
	}
}

package fs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func newVolume(capacity int64, mode disk.Mode) *Volume {
	d := disk.New(disk.DefaultGeometry(capacity), vclock.New(), mode)
	return Format(d, Config{})
}

func fillBytes(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i%97)
	}
	return b
}

// replaceFile writes size bytes to name the way core.FileStore does: a
// temp file appended in 64 KB requests, closed, renamed over name.
func replaceFile(tb testing.TB, v *Volume, name string, size int64) {
	tb.Helper()
	f, err := v.Create(TempName(name))
	for off := int64(0); err == nil && off < size; off += 64 * units.KB {
		err = f.Append(min(64*units.KB, size-off), nil)
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = v.Rename(TempName(name), name)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

func TestCreateAppendRead(t *testing.T) {
	v := newVolume(256*units.MB, disk.DataMode)
	f, err := v.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	data := fillBytes(100*units.KB, 1)
	if err := f.Append(0, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100*units.KB {
		t.Fatalf("Size = %d", f.Size())
	}
	g, err := v.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ReadAll(); !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestCreateDuplicate(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	if _, err := v.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create err = %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	if _, err := v.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteFreesSpaceAfterLogFlush(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	before := v.FreeBytes()
	f, _ := v.Create("a")
	if err := f.Append(1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v.FreeBytes() >= before {
		t.Fatal("append did not consume space")
	}
	if err := v.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// Space is quarantined until the log flush.
	if got := v.FreeBytes() + v.Stats().PendingBytes; got != before {
		t.Fatalf("free + pending = %d, want %d", got, before)
	}
	v.FlushLog()
	if v.FreeBytes() != before {
		t.Fatalf("Free after flush = %d, want %d", v.FreeBytes(), before)
	}
	if _, err := v.Open("a"); !errors.Is(err, ErrNotExist) {
		t.Fatal("deleted file still opens")
	}
}

func TestSequentialAppendsContiguous(t *testing.T) {
	v := newVolume(256*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	for i := 0; i < 16; i++ { // 16 x 64KB requests
		if err := f.Append(64*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if f.Fragments() != 1 {
		t.Fatalf("sequential appends produced %d fragments, want 1", f.Fragments())
	}
}

func TestFragmentsWhenFreeSpaceShattered(t *testing.T) {
	v := newVolume(16*units.MB, disk.MetadataMode)
	// Fill the volume with small files, delete every other one, flush.
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := v.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(256*units.KB, nil); err != nil {
			v.Delete(name)
			break
		}
		f.Close()
		names = append(names, name)
	}
	for i := 0; i < len(names); i += 2 {
		if err := v.Delete(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	v.FlushLog()
	// A 1MB object can now only be stored fragmented.
	g, err := v.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append(1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if g.Fragments() < 2 {
		t.Fatalf("expected fragmentation, got %d fragments", g.Fragments())
	}
}

func TestReadAt(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	f, _ := v.Create("a")
	f.Append(1*units.MB, nil)
	f.Close()
	if _, err := f.ReadAt(512*units.KB, 64*units.KB); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(900*units.KB, 200*units.KB); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("read past EOF: err = %v, want blob.ErrOutOfRange", err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	a, _ := v.Create("a")
	a.Append(64*units.KB, nil)
	a.Close()
	b, _ := v.Create("b")
	b.Append(128*units.KB, nil)
	b.Close()
	if err := v.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 128*units.KB {
		t.Fatalf("rename did not replace: size %d", got.Size())
	}
	if _, err := v.Open("b"); !errors.Is(err, ErrNotExist) {
		t.Fatal("old name still present")
	}
}

func TestSizeHintReducesFragmentation(t *testing.T) {
	// Shatter free space, then write an object with and without the hint.
	mk := func() *Volume {
		v := newVolume(32*units.MB, disk.MetadataMode)
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
		// Delete a contiguous band comfortably bigger than one 1MB object
		// (directory index buffers may shave a few clusters off it), plus
		// scattered holes elsewhere.
		for i := 0; i < 12; i++ {
			v.Delete(names[40+i])
		}
		for i := 0; i < len(names); i += 7 {
			if i < 40 || i >= 52 {
				v.Delete(names[i])
			}
		}
		v.FlushLog()
		return v
	}

	v1 := mk()
	f1, _ := v1.Create("nohint")
	for off := int64(0); off < 1*units.MB; off += 64 * units.KB {
		if err := f1.Append(64*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	f1.Close()

	v2 := mk()
	f2, _ := v2.Create("hint")
	f2.SetSizeHint(1 * units.MB)
	for off := int64(0); off < 1*units.MB; off += 64 * units.KB {
		if err := f2.Append(64*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	f2.Close()

	// The hint lets the allocator size the first request to the whole
	// object; it cannot beat physical free-space fragmentation (directory
	// index buffers interleave with file data), but it must do strictly
	// better than growing 64KB at a time.
	if f2.Fragments() >= f1.Fragments() {
		t.Fatalf("size hint did not reduce fragments: hint=%d nohint=%d", f2.Fragments(), f1.Fragments())
	}
}

func TestDelayedAllocationSingleExtent(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode)
	v := Format(d, Config{DelayedAllocation: true})
	f, _ := v.Create("a")
	for i := 0; i < 16; i++ {
		f.Append(64*units.KB, nil)
	}
	if f.Fragments() != 0 {
		t.Fatalf("delayed allocation allocated early: %d fragments", f.Fragments())
	}
	f.Close()
	if f.Fragments() != 1 {
		t.Fatalf("fragments after close = %d", f.Fragments())
	}
	if f.Size() != 1*units.MB {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestDefragment(t *testing.T) {
	v := newVolume(32*units.MB, disk.MetadataMode)
	// Build a fragmented file via shattered free space.
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := v.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(64*units.KB, nil); err != nil {
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
		t.Skip("setup did not fragment; volume too empty")
	}
	// Delete more files so contiguous space exists for the move.
	for i := 1; i < len(names); i += 2 {
		v.Delete(names[i])
	}
	v.FlushLog()
	if moved, ok := v.CompactFile("frag"); !ok || moved != 512*units.KB {
		t.Fatalf("CompactFile moved %d bytes (ok=%v), want the whole file", moved, ok)
	}
	// Relocation publishes a fresh version; the old handle is dead.
	if g.Fragments() != 0 {
		t.Fatalf("stale handle still maps %d fragments", g.Fragments())
	}
	g, ok := v.Lookup("frag")
	if !ok {
		t.Fatal("frag missing after defragment")
	}
	if g.Fragments() != 1 {
		t.Fatalf("file still has %d fragments", g.Fragments())
	}
	if _, ok := v.CompactFile("frag"); ok {
		t.Fatal("a contiguous file was moved again")
	}
}

// TestRefusedCompactionLeavesTheVolume pins that a move refused for
// want of one contiguous run takes nothing: with free space cut into
// 16 KB runs and nothing awaiting the log, compacting a 400 KB file
// fails without a log flush, leaves no clusters quarantined and leaves
// the free space as it was.
func TestRefusedCompactionLeavesTheVolume(t *testing.T) {
	v := newVolume(16*units.MB, disk.MetadataMode)
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := v.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(16*units.KB, nil); err != nil {
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
	if err := g.Append(400*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if g.Fragments() < 2 || v.rc.PendingClusters() != 0 {
		t.Fatalf("fixture: %d fragments, %d clusters pending", g.Fragments(), v.rc.PendingClusters())
	}
	flushes, free := v.Stats().LogFlushes, v.FreeBytes()
	if moved, ok := v.CompactFile("frag"); ok {
		t.Fatalf("CompactFile moved %d bytes with no 400 KB run free", moved)
	}
	if got := v.Stats().LogFlushes; got != flushes {
		t.Errorf("log flushes %d -> %d", flushes, got)
	}
	if got := v.rc.PendingClusters(); got != 0 {
		t.Errorf("%d clusters pending after the refused move", got)
	}
	if got := v.FreeBytes(); got != free {
		t.Errorf("free bytes %d -> %d", free, got)
	}
	v.CheckInvariants()
}

func TestShatterFiles(t *testing.T) {
	v := newVolume(32*units.MB, disk.MetadataMode)
	for i := 0; i < 10; i++ {
		f, _ := v.Create(fmt.Sprintf("f%d", i))
		f.Append(1*units.MB, nil)
		f.Close()
	}
	mean := v.ShatterFiles(16)
	if mean < 2 {
		t.Fatalf("ShatterFiles produced mean %g fragments", mean)
	}
	// Integrity: every file still has its full allocation.
	v.EachFile(func(f *File) {
		if f.allocated*v.ClusterSize() < f.size {
			t.Fatalf("file %s under-allocated after shatter", f.Name())
		}
	})
}

func TestOutOfSpace(t *testing.T) {
	v := newVolume(8*units.MB, disk.MetadataMode)
	f, _ := v.Create("big")
	err := f.Append(16*units.MB, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestSafeWriteChargesTime(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	before := v.Drive().Clock().Now()
	replaceFile(t, v, "obj", 1*units.MB)
	if v.Drive().Clock().Now() == before {
		t.Fatal("safe write advanced no virtual time")
	}
}

func TestStatsCounters(t *testing.T) {
	v := newVolume(64*units.MB, disk.MetadataMode)
	replaceFile(t, v, "a", 64*units.KB)
	v.Open("a")
	v.Delete("a")
	s := v.Stats()
	if s.Creates == 0 || s.Opens == 0 || s.Deletes == 0 {
		t.Fatalf("counters not recorded: %+v", s)
	}
}

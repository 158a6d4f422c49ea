package db

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func TestWholeObjectRequestMode(t *testing.T) {
	// WriteRequestSize < 0 writes each object as a single request.
	clock := vclock.New()
	data := disk.New(disk.DefaultGeometry(128*units.MB), clock, disk.MetadataMode)
	logd := disk.New(disk.DefaultGeometry(64*units.MB), clock, disk.MetadataMode)
	d := Open(data, logd, Config{WriteRequestSize: -1})
	if err := d.Put("a", 10*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	frags, _ := d.Fragments("a")
	if frags > 2 {
		t.Fatalf("single-request put fragmented: %d", frags)
	}
}

func TestZeroAndMismatchedWrites(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	if err := d.Put("a", 0, nil); err == nil {
		t.Fatal("zero-size put succeeded")
	}
	if err := d.Put("a", 100, []byte{1}); err == nil {
		t.Fatal("mismatched data length accepted")
	}
}

func TestDeleteMissingAndStatMissing(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	if err := d.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete err = %v", err)
	}
	if _, err := d.Stat("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat err = %v", err)
	}
	if _, err := d.Fragments("ghost"); err == nil {
		t.Fatal("fragments of missing object succeeded")
	}
	if _, err := d.ObjectRuns("ghost"); err == nil {
		t.Fatal("runs of missing object succeeded")
	}
	if d.Tag("ghost") != 0 {
		t.Fatal("tag of missing object nonzero")
	}
}

func TestPutFailureLeavesNoTrace(t *testing.T) {
	d := newDB(16*units.MB, disk.MetadataMode)
	free0 := d.FreeBytes()
	if err := d.Put("big", 64*units.MB, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if d.ObjectCount() != 0 {
		t.Fatal("failed put left an object")
	}
	if d.FreeBytes() != free0 {
		t.Fatalf("failed put leaked pages: %d -> %d", free0, d.FreeBytes())
	}
	d.CheckInvariants()
}

func TestReplaceUnderPressureUsesGhostFlush(t *testing.T) {
	// A replaced version stays ghosted for ghostHorizon operations, so
	// on a 64 MB volume back-to-back 20 MB replaces run out of space;
	// once padding ops push the ghosts past the horizon, the space must
	// come back and replacement near capacity keep working.
	d := newDB(64*units.MB, disk.MetadataMode)
	if err := d.Put("a", 20*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	failed, recovered := 0, 0
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("pad%d", i%3)
		_ = d.Replace(key, 64*units.KB, nil)
		if err := d.Replace("a", 20*units.MB, nil); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
			failed++
		} else if failed > 0 {
			recovered++
		}
	}
	if failed == 0 || recovered == 0 {
		t.Fatalf("%d replaces ran out of space, %d succeeded after one did; want both > 0", failed, recovered)
	}
	if _, err := d.Stat("a"); err != nil {
		t.Fatal("object lost under pressure")
	}
	d.CheckInvariants()
}

func TestGetChargesNodePageReadsOnceCached(t *testing.T) {
	d := newDB(128*units.MB, disk.MetadataMode)
	d.Put("a", 8*units.MB, nil) // > 500 pages: at least 2 node pages + 1 root region
	d.DataDrive().ResetStats()
	d.Get("a")
	firstReads := d.DataDrive().Stats().Reads
	d.DataDrive().ResetStats()
	d.Get("a")
	secondReads := d.DataDrive().Stats().Reads
	if secondReads >= firstReads {
		t.Fatalf("buffer pool did not absorb node reads: %d then %d", firstReads, secondReads)
	}
}

func TestMetaTable(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	mt := d.NewMetaTable("objects")
	if err := mt.Insert("a"); err != nil {
		t.Fatal(err)
	}
	if err := mt.Insert("a"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup insert err = %v", err)
	}
	if !mt.Lookup("a") || mt.Lookup("b") {
		t.Fatal("lookup wrong")
	}
	if err := mt.Update("a"); err != nil {
		t.Fatal(err)
	}
	if err := mt.Update("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	if mt.Len() != 1 {
		t.Fatalf("len = %d", mt.Len())
	}
	if err := mt.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := mt.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestRowPageAllocationCadence(t *testing.T) {
	d := newDB(128*units.MB, disk.MetadataMode)
	for i := 0; i < RowsPerPage*3; i++ {
		if err := d.Put(fmt.Sprintf("o%d", i), 8*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.rowPages); got != 3 {
		t.Fatalf("row pages = %d, want 3 for %d inserts", got, RowsPerPage*3)
	}
}

// TestOpenWithoutLogDrivePanics: the log always has a drive of its own,
// as the paper gave SQL Server (§4.1).
func TestOpenWithoutLogDrivePanics(t *testing.T) {
	data := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode)
	mustPanic(t, "Open with no log drive", func() { Open(data, nil, Config{}) })
}

func TestGhostHorizonExactness(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	d.Put("victim", 1*units.MB, nil)
	free0 := d.FreeBytes()
	d.Delete("victim")
	// The pages must stay ghosted for exactly ghostHorizon further ops.
	for i := 0; i < ghostHorizon; i++ {
		if d.FreeBytes() > free0 {
			t.Fatalf("ghosts released after only %d ops", i)
		}
		d.Put(fmt.Sprintf("pad%d", i), 8*units.KB, nil)
	}
	d.Put("trigger", 8*units.KB, nil)
	if d.FreeBytes() <= free0 {
		t.Fatal("ghosts never released")
	}
}

// TestGroupForcesLogOncePerBatch pins the engine half of group commit:
// puts inside a BeginGroup/EndGroup bracket defer their log forces and
// the bracket issues exactly one, while ungrouped puts force each.
func TestGroupForcesLogOncePerBatch(t *testing.T) {
	d := newDB(128*units.MB, disk.MetadataMode)
	base := d.Stats().LogForces
	for i := 0; i < 4; i++ {
		if err := d.Put(fmt.Sprintf("solo%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().LogForces - base; got != 4 {
		t.Fatalf("ungrouped puts forced %d times, want 4", got)
	}

	base = d.Stats().LogForces
	d.BeginGroup()
	for i := 0; i < 4; i++ {
		if err := d.Put(fmt.Sprintf("grp%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().LogForces - base; got != 0 {
		t.Fatalf("forced %d times inside the group", got)
	}
	d.EndGroup()
	if got := d.Stats().LogForces - base; got != 1 {
		t.Fatalf("group forced %d times, want 1", got)
	}
	// Unbalanced EndGroup is a no-op, and nesting forces only once.
	d.EndGroup()
	d.BeginGroup()
	d.BeginGroup()
	if err := d.Put("nested", 256*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	d.EndGroup()
	d.EndGroup()
	if got := d.Stats().LogForces - base; got != 2 {
		t.Fatalf("nested group forced %d total, want 2", got)
	}
	d.CheckInvariants()
}

package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func newDB(capacity int64, mode disk.Mode) *Database {
	clock := vclock.New()
	data := disk.New(disk.DefaultGeometry(capacity), clock, mode)
	logd := disk.New(disk.DefaultGeometry(64*units.MB), clock, disk.MetadataMode)
	return Open(data, logd, Config{})
}

func payload(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed)*31 + i%127)
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	d := newDB(256*units.MB, disk.DataMode)
	data := payload(300*units.KB, 3)
	if err := d.Put("a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	size, err := d.Stat("a")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Stat = %d, %v", size, err)
	}
}

func TestPutDuplicate(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	if err := d.Put("a", 64*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a", 64*units.KB, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	if _, err := d.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplaceSwapsContents(t *testing.T) {
	d := newDB(256*units.MB, disk.DataMode)
	v1 := payload(128*units.KB, 1)
	v2 := payload(256*units.KB, 2)
	if err := d.Put("a", int64(len(v1)), v1); err != nil {
		t.Fatal(err)
	}
	if err := d.Replace("a", int64(len(v2)), v2); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Get("a")
	if !bytes.Equal(got, v2) {
		t.Fatal("replace did not swap contents")
	}
	if d.ObjectCount() != 1 {
		t.Fatalf("ObjectCount = %d", d.ObjectCount())
	}
}

func TestDeleteReclaimsAfterGhostHorizon(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	free0 := d.FreeBytes()
	if err := d.Put("a", 1*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	afterPut := d.FreeBytes()
	if afterPut >= free0 {
		t.Fatal("put consumed no space")
	}
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// Pages are ghosted, not yet free.
	if d.FreeBytes() >= free0 {
		t.Fatal("pages freed before ghost horizon")
	}
	d.FlushGhosts()
	// All BLOB pages return; the one lazily allocated row page stays with
	// the table.
	if got, want := d.FreeBytes(), free0-PageSize; got != want {
		t.Fatalf("free = %d, want %d", got, want)
	}
	d.CheckInvariants()
}

func TestReplaceCannotReuseOwnOldSpace(t *testing.T) {
	// The defining dynamic of the safe-replace protocol: the new version
	// is allocated while the old one still holds its pages.
	d := newDB(16*units.MB, disk.MetadataMode)
	// Fill most of the file so a replace must fit in what remains.
	size := int64(6 * units.MB)
	if err := d.Put("a", size, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("b", size, nil); err != nil {
		t.Fatal(err)
	}
	// Free space is now < size; replacing must fail even though the old
	// version's pages would make room.
	if err := d.Replace("a", size, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("replace err = %v, want ErrNoSpace (old pages must not be reusable mid-transaction)", err)
	}
	// The failed replace must leave the old version intact.
	if _, err := d.Stat("a"); err != nil {
		t.Fatalf("old version lost after failed replace: %v", err)
	}
	d.CheckInvariants()
}

func TestCrashRollsBackInFlight(t *testing.T) {
	d := newDB(64*units.MB, disk.DataMode)
	v1 := payload(128*units.KB, 5)
	d.Put("a", int64(len(v1)), v1)
	// Start a replace and crash before commit by invoking the internal
	// steps: begin + allocate + write, then crash.
	tx := d.begin("a")
	var seq int64
	if err := d.writeChunk(tx, 99, 128*units.KB, &seq); err != nil {
		t.Fatal(err)
	}
	d.SimulateCrash()
	got, err := d.Get("a")
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatal("crash mid-replace corrupted the old version")
	}
	d.CheckInvariants()
}

func TestBulkLoadIsSequential(t *testing.T) {
	// During bulk load both systems "simply append each new object to the
	// end of allocated storage, avoiding seeks" (§5.3). Fragments must be
	// 1 per object and data-drive seeks near zero.
	d := newDB(256*units.MB, disk.MetadataMode)
	d.DataDrive().ResetStats()
	for i := 0; i < 50; i++ {
		if err := d.Put(fmt.Sprintf("o%d", i), 1*units.MB, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		frags, err := d.Fragments(fmt.Sprintf("o%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if frags > 2 {
			t.Fatalf("bulk-loaded object o%d has %d fragments", i, frags)
		}
	}
	s := d.DataDrive().Stats()
	if s.Seeks > 3*50 {
		t.Fatalf("bulk load incurred %d seeks for 50 objects", s.Seeks)
	}
}

func TestChurnFragmentsObjects(t *testing.T) {
	// After enough safe-replaces, objects should fragment — the paper's
	// central result for the database side.
	d := newDB(128*units.MB, disk.MetadataMode)
	const n = 10
	sizeFor := func(i int) int64 { return int64(3+i%5) * units.MB } // ~50% occupancy
	for i := 0; i < n; i++ {
		if err := d.Put(fmt.Sprintf("o%d", i), sizeFor(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 8*n; op++ { // storage age 8
		i := rng.Intn(n)
		if err := d.Replace(fmt.Sprintf("o%d", i), sizeFor(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := 0; i < n; i++ {
		frags, _ := d.Fragments(fmt.Sprintf("o%d", i))
		total += frags
	}
	mean := float64(total) / float64(n)
	if mean < 2 {
		t.Fatalf("mean fragments/object after churn = %.1f, want > 2", mean)
	}
	d.CheckInvariants()
}

func TestFragmentationSlowsGets(t *testing.T) {
	// Read a 5MB object bulk-loaded (contiguous) vs after churn
	// (fragmented): virtual read time must increase.
	mkTime := func(churn bool) float64 {
		d := newDB(128*units.MB, disk.MetadataMode)
		const n = 10
		size := int64(5 * units.MB)
		for i := 0; i < n; i++ {
			d.Put(fmt.Sprintf("o%d", i), size, nil)
		}
		if churn {
			rng := rand.New(rand.NewSource(2))
			for op := 0; op < 10*n; op++ {
				d.Replace(fmt.Sprintf("o%d", rng.Intn(n)), size, nil)
			}
		}
		w := vclock.StartWatch(d.DataDrive().Clock())
		for i := 0; i < n; i++ {
			d.Get(fmt.Sprintf("o%d", i))
		}
		return w.Seconds()
	}
	clean := mkTime(false)
	aged := mkTime(true)
	if aged <= clean {
		t.Fatalf("aged reads (%.3fs) not slower than clean (%.3fs)", aged, clean)
	}
}

func TestAllocatorInvariantsUnderChurn(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	rng := rand.New(rand.NewSource(3))
	live := map[string]bool{}
	for op := 0; op < 300; op++ {
		key := fmt.Sprintf("o%d", rng.Intn(20))
		switch {
		case !live[key]:
			size := int64(rng.Intn(8)+1) * 64 * units.KB
			if err := d.Put(key, size, nil); err == nil {
				live[key] = true
			}
		case rng.Intn(2) == 0:
			size := int64(rng.Intn(8)+1) * 64 * units.KB
			_ = d.Replace(key, size, nil)
		default:
			if err := d.Delete(key); err != nil {
				t.Fatal(err)
			}
			delete(live, key)
		}
	}
	d.CheckInvariants()
}

func TestObjectRunsMatchFragments(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	d.Put("a", 2*units.MB, nil)
	frags, _ := d.Fragments("a")
	runs, err := d.ObjectRuns("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != frags {
		t.Fatalf("ObjectRuns %d != Fragments %d", len(runs), frags)
	}
}

func TestStatsCounters(t *testing.T) {
	d := newDB(64*units.MB, disk.MetadataMode)
	d.Put("a", 64*units.KB, nil)
	d.Get("a")
	d.Replace("a", 64*units.KB, nil)
	d.Delete("a")
	s := d.Stats()
	if s.Puts != 1 || s.Gets != 1 || s.Replaces != 1 || s.Deletes != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAllocatorUnit(t *testing.T) {
	a := NewAllocator(16)
	runs, ok := a.AllocPages(20)
	if !ok {
		t.Fatal("alloc failed")
	}
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	if n != 20 {
		t.Fatalf("allocated %d pages", n)
	}
	// Lowest-first: the first run starts at page 0.
	if runs[0].Start != 0 {
		t.Fatalf("first run at %d", runs[0].Start)
	}
	a.FreeRuns(runs)
	if a.FreePages() != 16*PagesPerExtent {
		t.Fatalf("free = %d", a.FreePages())
	}
	a.CheckInvariants()
	if _, ok := a.AllocPages(16*PagesPerExtent + 1); ok {
		t.Fatal("oversized alloc succeeded")
	}
}

func TestAllocatorFillsPartialFirst(t *testing.T) {
	a := NewAllocator(16)
	first, _ := a.AllocPages(3) // extent 0 partially used
	runs, _ := a.AllocPages(2)  // must fill extent 0's remaining pages
	if runs[0].Start != 3 {
		t.Fatalf("partial extent not filled first: got start %d", runs[0].Start)
	}
	_ = first
	a.CheckInvariants()
}

// TestCoalescePageRuns pins appendRun, the one place page runs coalesce:
// a run adjacent to its predecessor merges into it, whatever its length,
// and nothing else does — a run that ends where an earlier one starts is
// a seek on disk and stays a fragment.
func TestCoalescePageRuns(t *testing.T) {
	var got []PageRun
	for _, r := range []PageRun{{0, 1}, {1, 1}, {2, 1}, {5, 2}, {10, 1}, {11, 8}, {8, 2}, {3, 2}} {
		got = appendRun(got, r)
	}
	want := []PageRun{{0, 3}, {5, 2}, {10, 9}, {8, 2}, {3, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBufferPoolLRU(t *testing.T) {
	bp := newBufferPool(2)
	if bp.Access(1) {
		t.Fatal("first access hit")
	}
	if !bp.Access(1) {
		t.Fatal("second access missed")
	}
	bp.Access(2)
	bp.Access(3) // evicts 1 (LRU)
	if bp.Access(1) {
		t.Fatal("evicted page hit")
	}
	// 2 was evicted by re-adding 1; 3 should still be present.
	if !bp.Access(3) {
		t.Fatal("recently used page evicted")
	}
	bp.Invalidate(3)
	if bp.Access(3) {
		t.Fatal("invalidated page hit")
	}
	if bp.HitRate() <= 0 || bp.HitRate() >= 1 {
		t.Fatalf("hit rate %g", bp.HitRate())
	}
}

// Property: random engine workloads preserve payload integrity and
// allocator consistency.
func TestQuickEngineIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDB(32*units.MB, disk.DataMode)
		contents := map[string][]byte{}
		for op := 0; op < 50; op++ {
			key := fmt.Sprintf("o%d", rng.Intn(6))
			switch rng.Intn(3) {
			case 0, 1:
				size := int64(rng.Intn(4)+1) * 32 * units.KB
				data := make([]byte, size)
				rng.Read(data)
				if err := d.Replace(key, size, data); err != nil {
					return false
				}
				contents[key] = data
			case 2:
				if _, ok := contents[key]; ok {
					if d.Delete(key) != nil {
						return false
					}
					delete(contents, key)
				}
			}
		}
		for key, want := range contents {
			got, err := d.Get(key)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		d.CheckInvariants()
		return d.ObjectCount() == len(contents)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
)

// newDBWith opens a metadata-mode database whose data drive keeps the
// owner map, so the marker scan can check its books.
func newDBWith(capacity int64, cfg Config) *Database {
	clock := vclock.New()
	data := disk.New(disk.DefaultGeometry(capacity), clock, disk.MetadataMode, disk.WithOwnerMap())
	logd := disk.New(disk.DefaultGeometry(64*units.MB), clock, disk.MetadataMode)
	return Open(data, logd, cfg)
}

// modelPages is the page-list model of one version: each write request
// takes CeilDiv(request, PageSize) fresh data pages, and the fragment
// tree one node page per BlobTreeFanout data pages.
func modelPages(size, request int64) (data, nodes int64) {
	if request < 0 || request > size {
		request = size
	}
	for rem := size; rem > 0; rem -= min(request, rem) {
		data += units.CeilDiv(min(request, rem), PageSize)
	}
	return data, units.CeilDiv(data, BlobTreeFanout)
}

// TestRunsAgreeWithMarkerScan churns a volume at three write-request
// sizes — extent-sized, not a page multiple (a fresh page per request, so
// more pages than CeilDiv(size, PageSize)) and whole-object — and checks
// the engine's run lists from outside: the marker scanner, reading only
// the drive's owner map, must count the fragments Fragments and
// ObjectRuns report; the pages they cover, the ghosted-page count and the
// free-page count must match a page-list model kept by the test. The
// volume is tight enough that some writes run out of space part-way and
// roll back.
func TestRunsAgreeWithMarkerScan(t *testing.T) {
	for _, request := range []int64{64 * units.KB, 20 * units.KB, -1} {
		t.Run(fmt.Sprintf("request=%d", request), func(t *testing.T) {
			d := newDBWith(64*units.MB, Config{WriteRequestSize: request})
			rng := rand.New(rand.NewSource(request))
			type ghost struct{ seq, pages int64 }
			var ghosts []ghost
			var opSeq int64
			aborted := 0
			sizes := map[string]int64{}
			pagesOf := func(size int64) int64 { dp, np := modelPages(size, request); return dp + np }
			committed := func(freed int64) {
				if freed > 0 {
					ghosts = append(ghosts, ghost{opSeq, freed})
				}
				opSeq++
				for len(ghosts) > 0 && ghosts[0].seq < opSeq-ghostHorizon {
					ghosts = ghosts[1:]
				}
			}
			check := func(op int) {
				t.Helper()
				scanned, err := frag.ScanMarkers(d.DataDrive())
				if err != nil {
					t.Fatal(err)
				}
				var live int64
				for key, size := range sizes {
					frags, _ := d.Fragments(key)
					runs, _ := d.ObjectRuns(key)
					if got := scanned[d.Tag(key)]; got != frags || len(runs) != frags {
						t.Fatalf("op %d, %s: marker scan %d fragments, Fragments %d, ObjectRuns %d", op, key, got, frags, len(runs))
					}
					var clusters int64
					for _, r := range runs {
						clusters += r.Len
					}
					dp, np := modelPages(size, request)
					if clusters != dp*d.clustersPerPage {
						t.Fatalf("op %d, %s: runs cover %d clusters, model %d data pages", op, key, clusters, dp)
					}
					live += dp + np
				}
				var ghosted int64
				for _, g := range ghosts {
					ghosted += g.pages
				}
				s := d.Stats()
				if int64(s.GhostedPages) != ghosted {
					t.Fatalf("op %d: GhostedPages %d, test counted %d", op, s.GhostedPages, ghosted)
				}
				total := d.alloc.Extents() * PagesPerExtent
				if want := total - live - ghosted - int64(len(d.rowPages)); s.FreePages != want {
					t.Fatalf("op %d: FreePages %d, model %d", op, s.FreePages, want)
				}
				d.CheckInvariants()
			}
			for op := 0; op < 400; op++ {
				key := fmt.Sprintf("o%d", rng.Intn(14))
				old, exists := sizes[key]
				if exists && rng.Intn(5) == 0 {
					if err := d.Delete(key); err != nil {
						t.Fatal(err)
					}
					delete(sizes, key)
					committed(pagesOf(old))
				} else {
					// 4 KB multiples up to 6 MB: past one tree node, and
					// with the 20 KB request rarely a request multiple.
					size := int64(1+rng.Intn(1536)) * 4 * units.KB
					if err := d.Replace(key, size, nil); err != nil {
						aborted++ // out of space: rolled back, nothing committed
					} else if sizes[key] = size; exists {
						committed(pagesOf(old))
					} else {
						committed(0)
					}
				}
				if op%20 == 19 {
					check(op)
				}
			}
			// Once every ghost is reclaimed, run by run, no dead version
			// may still own a cluster.
			d.FlushGhosts()
			ghosts = nil
			check(400)
			if aborted == 0 {
				t.Fatal("no write ran out of space: the rollback path went unexercised")
			}
			if scanned, _ := frag.ScanMarkers(d.DataDrive()); len(scanned) != len(sizes) {
				t.Fatalf("%d tags on the drive, %d live objects", len(scanned), len(sizes))
			}
		})
	}
}

// TestGetRangeCostsMatchPageListModel reads ranges of a fragmented object
// on one database and replays what the page-list engine charged for the
// same range — one request per contiguous run of the touched pages,
// pageCPUUs per touched page — on the drive of an identical twin. The
// two drives must count the same requests, bytes and seeks and their
// clocks advance by the same amount.
func TestGetRangeCostsMatchPageListModel(t *testing.T) {
	for _, request := range []int64{64 * units.KB, 20 * units.KB} {
		t.Run(fmt.Sprintf("request=%d", request), func(t *testing.T) {
			const size = 1*units.MB + 4*units.KB
			build := func() *Database {
				d := newDBWith(64*units.MB, Config{WriteRequestSize: request})
				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 300; op++ {
					key := fmt.Sprintf("o%d", rng.Intn(20))
					if err := d.Replace(key, int64(1+rng.Intn(300))*4*units.KB, nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Replace("victim", size, nil); err != nil {
					t.Fatal(err)
				}
				return d
			}
			got, twin := build(), build()
			r := twin.rows["victim"]
			if len(r.runs) < 3 {
				t.Fatalf("victim has %d runs; the churn no longer fragments it", len(r.runs))
			}
			var pages []PageID
			for _, pr := range r.runs {
				for p := pr.Start; p < pr.End(); p++ {
					pages = append(pages, p)
				}
			}
			if dp, _ := modelPages(size, request); int64(len(pages)) != dp || r.pages != dp {
				t.Fatalf("victim holds %d pages in runs, counts %d, model %d", len(pages), r.pages, dp)
			}
			model := func(off, length int64) int {
				twin.data.ChargeCPU(rowCPUUs)
				for _, p := range r.nodes {
					if !twin.pool.Access(p) {
						twin.data.ChargeRead(twin.clusterRun(PageRun{Start: p, Len: 1}))
					}
				}
				firstP, lastP := off/PageSize, (off+length-1)/PageSize
				if off+length == size {
					lastP = int64(len(pages)) - 1
				}
				touched := coalescePages(pages[firstP : lastP+1])
				for _, pr := range touched {
					twin.data.ChargeRead(twin.clusterRun(pr))
				}
				twin.data.ChargeCPU(pageCPUUs * float64(lastP-firstP+1))
				return len(touched)
			}
			seam := r.runs[0].Len * PageSize // first byte of the second run
			tests := []struct {
				name        string
				off, length int64
				wantReads   int64 // data requests, when the layout does not decide it
			}{
				{"cold whole object", 0, size, int64(len(r.runs)) + int64(len(r.nodes))},
				{"first page", 0, PageSize, 1},
				{"one byte", 5 * PageSize, 1, 1},
				{"inside the last page, short of the end", size - 3*units.KB, units.KB, 1},
				{"ending exactly at size", size - 3*units.KB, 3 * units.KB, 0},
				{"spanning a run seam", seam - PageSize, 2 * PageSize, 2},
				{"from mid-run across two seams", seam - 100, r.runs[1].Len*PageSize + 200, 3},
				{"whole object", 0, size, int64(len(r.runs))},
			}
			for _, tc := range tests {
				s0, c0 := got.data.Stats(), got.data.Clock().Now()
				m0, mc0 := twin.data.Stats(), twin.data.Clock().Now()
				if _, err := got.GetRange("victim", tc.off, tc.length); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				runs := model(tc.off, tc.length)
				s1, m1 := got.data.Stats(), twin.data.Stats()
				reads, bytes, seeks := s1.Reads-s0.Reads, s1.BytesRead-s0.BytesRead, s1.Seeks-s0.Seeks
				if mr, mb, ms := m1.Reads-m0.Reads, m1.BytesRead-m0.BytesRead, m1.Seeks-m0.Seeks; reads != mr || bytes != mb || seeks != ms {
					t.Errorf("%s: %d reads, %d bytes, %d seeks; page-list model %d, %d, %d", tc.name, reads, bytes, seeks, mr, mb, ms)
				}
				if dt, mdt := got.data.Clock().Now()-c0, twin.data.Clock().Now()-mc0; dt != mdt {
					t.Errorf("%s: clock advanced %d ns, page-list model %d ns", tc.name, dt, mdt)
				}
				if tc.wantReads > 0 && reads != tc.wantReads {
					t.Errorf("%s: %d reads (%d runs touched), want %d", tc.name, reads, runs, tc.wantReads)
				}
			}
		})
	}
}

// TestCrashMidWriteRestoresAllocator crashes a transaction that has
// written two requests and allocated a tree node. Its undo list holds
// runs — two requests merged into one where they were adjacent, the node
// page after them — and freeing it must put back exactly what was taken:
// whole extents rejoin the deallocation cache they came from, the node's
// extent its previous state.
func TestCrashMidWriteRestoresAllocator(t *testing.T) {
	d := newDBWith(64*units.MB, Config{})
	// Fill the deallocation cache, so the transaction draws from it and
	// its rollback refills it.
	for _, key := range []string{"a", "b"} {
		if err := d.Put(key, 4*units.MB, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete("a"); err != nil {
		t.Fatal(err)
	}
	d.FlushGhosts()
	free, queued, partial := d.alloc.FreePages(), d.alloc.ReuseQueueLen(), d.alloc.PartialExtents()
	if queued < 20 {
		t.Fatalf("only %d extents queued before the transaction", queued)
	}

	tx := d.begin("b")
	var seq int64
	for i := 0; i < 2; i++ {
		if err := d.writeChunk(tx, 99, 64*units.KB+PageSize, &seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.growBlobTree(tx); err != nil {
		t.Fatal(err)
	}
	if tx.pages != 18 || len(tx.nodes) != 1 || d.alloc.FreePages() != free-19 {
		t.Fatalf("transaction holds %d data pages and %d nodes, %d pages left the pool", tx.pages, len(tx.nodes), free-d.alloc.FreePages())
	}
	d.SimulateCrash()

	if f, q, p := d.alloc.FreePages(), d.alloc.ReuseQueueLen(), d.alloc.PartialExtents(); f != free || q != queued || p != partial {
		t.Fatalf("after the crash free/queued/partial = %d/%d/%d, before the transaction %d/%d/%d", f, q, p, free, queued, partial)
	}
	if scanned, err := frag.ScanMarkers(d.DataDrive()); err != nil || scanned[99] != 0 {
		t.Fatalf("the rolled-back version still owns %d fragments on the drive (%v)", scanned[99], err)
	}
	if frags, err := d.Fragments("b"); err != nil || frags == 0 {
		t.Fatalf("old version after the crash: %d fragments, %v", frags, err)
	}
	d.CheckInvariants()
}

// TestReplaceAllocationBudget pins what the books of one replace cost
// the host on an aged volume: the row, its run list at its exact length
// and the node-page list — nothing that grows with the object's page
// count, which for 640 KB would be about 3 KB.
func TestReplaceAllocationBudget(t *testing.T) {
	d := benchDB(256 * units.MB)
	const n, size = 150, 640 * units.KB
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("o%d", i)
		if err := d.Put(keys[i], size, nil); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	frags := 0
	replace := func() {
		key := keys[rng.Intn(n)]
		if err := d.Replace(key, int64(60+rng.Intn(41))*8*units.KB, nil); err != nil { // 480-800 KB
			t.Fatal(err)
		}
		f, _ := d.Fragments(key)
		frags += f
	}
	for i := 0; i < 6*n; i++ { // age the volume; grow the scratch buffers
		replace()
	}
	const runs = 1000
	frags = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		replace()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.2f allocations, %.0f bytes per replace at %.1f fragments/object", allocs, bytes, float64(frags)/runs)
	if float64(frags)/runs < 3 {
		t.Fatalf("volume not aged: %.1f fragments/object", float64(frags)/runs)
	}
	if allocs > 4 || bytes >= 1024 {
		t.Errorf("a replace allocates %.2f objects and %.0f bytes; want at most 4 and under 1 KB", allocs, bytes)
	}
}

package frag_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
)

func TestCountRunFragments(t *testing.T) {
	cases := []struct {
		runs []extent.Run
		want int
	}{
		{nil, 0},
		{[]extent.Run{{Start: 0, Len: 10}}, 1},
		{[]extent.Run{{Start: 0, Len: 10}, {Start: 10, Len: 5}}, 1}, // physically contiguous
		{[]extent.Run{{Start: 0, Len: 10}, {Start: 20, Len: 5}}, 2},
		{[]extent.Run{{Start: 20, Len: 5}, {Start: 0, Len: 10}}, 2}, // logical order matters
		{[]extent.Run{{Start: 0, Len: 1}, {Start: 2, Len: 1}, {Start: 4, Len: 1}}, 3},
	}
	for i, c := range cases {
		if got := frag.CountRunFragments(c.runs); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

type fakeSource map[string][]extent.Run

func (f fakeSource) EachObjectRuns(fn func(string, int64, []extent.Run)) {
	for k, runs := range f {
		fn(k, extent.SumLen(runs)*4096, runs)
	}
}

func TestAnalyze(t *testing.T) {
	src := fakeSource{
		"a": {{Start: 0, Len: 16}},
		"b": {{Start: 100, Len: 8}, {Start: 200, Len: 8}},
		"c": {{Start: 300, Len: 4}, {Start: 400, Len: 4}, {Start: 500, Len: 8}},
	}
	rep := frag.Analyze(src)
	if rep.Objects != 3 || rep.TotalFragments != 6 || rep.MaxFragments != 3 {
		t.Fatalf("report: %+v", rep)
	}
	if got := rep.MeanFragments(); got != 2 {
		t.Fatalf("mean = %g", got)
	}
	if rep.PerObject[0].Key != "a" || rep.PerObject[2].Fragments != 3 {
		t.Fatalf("per-object: %+v", rep.PerObject)
	}
	// 48 clusters * 4KB = 192KB = 3 x 64KB; 6 fragments -> 2 per 64KB.
	if got := rep.FragmentsPer64KB(); got != 2 {
		t.Fatalf("per64KB = %g", got)
	}
}

func TestScanMarkers(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode, disk.WithOwnerMap())
	// Object 7: two fragments; object 9: contiguous.
	d.WriteRun(extent.Run{Start: 10, Len: 4}, 7, 0, nil)
	d.WriteRun(extent.Run{Start: 50, Len: 4}, 7, 4, nil)
	d.WriteRun(extent.Run{Start: 100, Len: 8}, 9, 0, nil)
	got, err := frag.ScanMarkers(d)
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 2 || got[9] != 1 {
		t.Fatalf("scan: %v", got)
	}
	plain := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode)
	if _, err := frag.ScanMarkers(plain); err == nil {
		t.Fatal("scan of a drive built without WithOwnerMap succeeded")
	}
}

func TestScanDetectsLogicalReordering(t *testing.T) {
	// Physically adjacent but logically out of order counts as fragmented.
	d := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode, disk.WithOwnerMap())
	d.WriteRun(extent.Run{Start: 10, Len: 4}, 3, 4, nil) // second half first
	d.WriteRun(extent.Run{Start: 14, Len: 4}, 3, 0, nil)
	got, _ := frag.ScanMarkers(d)
	if got[3] != 2 {
		t.Fatalf("reordered object scanned as %d fragments, want 2", got[3])
	}
}

// TestCrossValidateAgainstEngines: the paper validated its marker tool
// against the NTFS defragmenter's reports; we validate the scanner
// against engine extent lists on both backends, with group commit off
// and on, after the states the markers must survive — replaces,
// deletes and CompactObject — and then plant a fault the scan must name.
func TestCrossValidateAgainstEngines(t *testing.T) {
	for _, backend := range []string{"filesystem", "database"} {
		t.Run(backend, func(t *testing.T) {
			for _, batch := range []int{1, 8} {
				t.Run(fmt.Sprintf("groupcommit=%d", batch), func(t *testing.T) {
					opts := []blob.Option{
						blob.WithCapacity(64 * units.MB), blob.WithDiskMode(disk.MetadataMode),
						blob.WithOwnerMap(), blob.WithGroupCommit(batch, 0),
					}
					var s blob.Store
					var drive *disk.Drive
					if backend == "filesystem" {
						st, err := core.NewFileStore(vclock.New(), opts...)
						if err != nil {
							t.Fatal(err)
						}
						s, drive = st, st.Volume().Drive()
					} else {
						st, err := core.NewDBStore(vclock.New(), opts...)
						if err != nil {
							t.Fatal(err)
						}
						s, drive = st, st.Engine().DataDrive()
					}
					checkAgree := func(when string) {
						t.Helper()
						bad, err := frag.CrossValidate(drive, s)
						if err != nil {
							t.Fatal(err)
						}
						if len(bad) > 0 {
							t.Fatalf("after %s, marker scan disagrees with extent lists: %v", when, bad)
						}
					}
					crossValidateChurn(t, s, checkAgree)
					plantFault(t, drive, s)
				})
			}
		})
	}
}

// crossValidateChurn loads 20 large and 20 small objects in batches of
// four committed together, then replaces, deletes and compacts,
// checking the scan against the extent lists after each step.
func crossValidateChurn(t *testing.T, s blob.Store, checkAgree func(string)) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	large := func() int64 { return int64(rng.Intn(8)+1) * 128 * units.KB }
	small := func() int64 { return int64(rng.Intn(15)+1) * 3 * units.KB }
	var larges, smalls []string
	for i := 0; i < 40; i += 4 {
		keys := []string{fmt.Sprintf("o%d", i), fmt.Sprintf("o%d", i+1), fmt.Sprintf("o%d", i+2), fmt.Sprintf("o%d", i+3)}
		if i < 20 {
			conformance.CommitTogether(t, s, keys, large())
			larges = append(larges, keys...)
		} else {
			conformance.CommitTogether(t, s, keys, small())
			smalls = append(smalls, keys...)
		}
	}
	for op := 0; op < 60; op++ {
		key, size := larges[rng.Intn(len(larges))], large()
		if rng.Intn(2) == 0 {
			key, size = smalls[rng.Intn(len(smalls))], small()
		}
		if err := blob.Replace(ctx, s, key, size, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkAgree("replaces")
	for _, key := range larges[:4] {
		if err := s.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	larges = larges[4:]
	checkAgree("deletes")
	var moved int64
	for _, key := range append(append([]string(nil), larges...), smalls...) {
		n, err := s.(blob.Rewriter).CompactObject(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	if moved == 0 {
		t.Fatal("CompactObject moved nothing: the relocation path went unexercised")
	}
	checkAgree("CompactObject")
}

// plantFault re-tags the middle cluster of the largest object's first
// run with a tag no object carries; CrossValidate must name that object
// and nothing else.
func plantFault(t *testing.T, drive *disk.Drive, s blob.Store) {
	var victim string
	var at extent.Run
	var most int64
	s.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
		if bytes > most || bytes == most && key < victim {
			victim, most, at = key, bytes, runs[0]
		}
	})
	if at.Len < 3 {
		t.Fatalf("largest object %s has a first run of %d clusters, too short to plant a fault in", victim, at.Len)
	}
	drive.WriteRun(extent.Run{Start: at.Start + 1, Len: 1}, 1<<31, 0, nil)
	bad, err := frag.CrossValidate(drive, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.HasPrefix(bad[0], victim+": ") {
		t.Fatalf("planted fault in %s, CrossValidate reported %v", victim, bad)
	}
}

type fakeTagSource struct {
	fakeSource
	tags map[string]uint32
}

func (f fakeTagSource) EachObjectTag(fn func(string, uint32)) {
	for k, tag := range f.tags {
		fn(k, tag)
	}
}

// TestCrossValidateReportsUnlistedSharedTag: every live object owns its
// tag, so a tag two keys share is reported, not skipped.
func TestCrossValidateReportsUnlistedSharedTag(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(64*units.MB), vclock.New(), disk.MetadataMode, disk.WithOwnerMap())
	d.WriteRun(extent.Run{Start: 10, Len: 2}, 5, 0, nil)
	d.WriteRun(extent.Run{Start: 40, Len: 4}, 6, 0, nil)
	src := fakeTagSource{
		fakeSource: fakeSource{"a": {{Start: 10, Len: 1}}, "b": {{Start: 11, Len: 1}}, "c": {{Start: 40, Len: 4}}},
		tags:       map[string]uint32{"a": 5, "b": 5, "c": 6},
	}
	bad, err := frag.CrossValidate(d, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "tag 5 [a b]: shared") {
		t.Fatalf("CrossValidate = %v, want the shared tag 5 reported", bad)
	}
}

func TestRunLengthHistogram(t *testing.T) {
	runs := []extent.Run{
		{Start: 0, Len: 1}, {Start: 10, Len: 1}, // bucket 0
		{Start: 20, Len: 3},  // bucket 1 (2-3)
		{Start: 30, Len: 8},  // bucket 3 (8-15)
		{Start: 50, Len: 15}, // bucket 3
	}
	h := frag.RunLengthHistogram(runs)
	if h[0] != 2 || h[1] != 1 || h[3] != 2 {
		t.Fatalf("histogram: %v", h)
	}
	if len(frag.RunLengthHistogram(nil)) != 0 {
		t.Fatal("nil runs should give empty histogram")
	}
}

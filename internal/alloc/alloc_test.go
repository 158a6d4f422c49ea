package alloc

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/extent"
	"repro/internal/units"
)

func total(runs []extent.Run) int64 { return extent.SumLen(runs) }

func TestFitPoliciesBasic(t *testing.T) {
	for _, pol := range []struct {
		name string
		mk   func(int64) Policy
	}{
		{"first-fit", NewFirstFit}, {"best-fit", NewBestFit},
		{"worst-fit", NewWorstFit}, {"next-fit", NewNextFit},
	} {
		name, p := pol.name, pol.mk(1000)
		if p.FreeClusters() != 1000 {
			t.Fatalf("%s: FreeClusters = %d", name, p.FreeClusters())
		}
		runs, err := p.Alloc(100)
		if err != nil || total(runs) != 100 {
			t.Fatalf("%s: Alloc(100) = %v, %v", name, runs, err)
		}
		if p.FreeClusters() != 900 {
			t.Fatalf("%s: FreeClusters after alloc = %d", name, p.FreeClusters())
		}
		for _, r := range runs {
			p.Free(r)
		}
		if p.FreeClusters() != 1000 {
			t.Fatalf("%s: FreeClusters after free = %d", name, p.FreeClusters())
		}
		if _, err := p.Alloc(1001); err != ErrNoSpace {
			t.Fatalf("%s: oversized alloc err = %v", name, err)
		}
		if _, err := p.Alloc(0); err == nil {
			t.Fatalf("%s: zero alloc succeeded", name)
		}
	}
}

func TestFirstFitPrefersLowOffset(t *testing.T) {
	p := NewFirstFit(1000)
	a, _ := p.Alloc(100) // [0,100)
	b, _ := p.Alloc(100) // [100,200)
	p.Free(a[0])
	runs, err := p.Alloc(50)
	if err != nil || runs[0].Start != 0 {
		t.Fatalf("first fit chose %v, want offset 0", runs)
	}
	_ = b
}

func TestBestFitPrefersTightHole(t *testing.T) {
	p := NewBestFit(1000)
	a, _ := p.Alloc(100) // [0,100)
	pad1, _ := p.Alloc(10)
	b, _ := p.Alloc(40) // hole candidate
	pad2, _ := p.Alloc(10)
	p.Free(a[0]) // 100-cluster hole at 0
	p.Free(b[0]) // 40-cluster hole at 110
	runs, err := p.Alloc(40)
	if err != nil || runs[0] != (extent.Run{Start: 110, Len: 40}) {
		t.Fatalf("best fit chose %v, want the exact 40-hole at 110", runs)
	}
	_, _ = pad1, pad2
}

func TestWorstFitPrefersLargestHole(t *testing.T) {
	p := NewWorstFit(1000)
	a, _ := p.Alloc(100)
	pad, _ := p.Alloc(10)
	b, _ := p.Alloc(40)
	p.Free(a[0])
	p.Free(b[0])
	// [110,150) coalesces with the tail into [110,1000): the largest hole.
	runs, err := p.Alloc(40)
	if err != nil || runs[0].Start != 110 {
		t.Fatalf("worst fit chose %v, want start 110", runs)
	}
	_ = pad
}

func TestFragmentedAllocation(t *testing.T) {
	p := NewFirstFit(100)
	var held [][]extent.Run
	for i := 0; i < 10; i++ {
		r, err := p.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	// Free every other block: five 10-cluster holes.
	for i := 0; i < 10; i += 2 {
		for _, r := range held[i] {
			p.Free(r)
		}
	}
	runs, err := p.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expected 3 fragments, got %v", runs)
	}
	if total(runs) != 30 {
		t.Fatalf("total = %d", total(runs))
	}
}

func TestRunCacheTailExtension(t *testing.T) {
	rc := NewRunCache(10000, 0)
	first, err := rc.AllocAppend(16, -1)
	if err != nil || len(first) != 1 {
		t.Fatalf("initial append: %v %v", first, err)
	}
	tail := first[0].End() - 1
	second, err := rc.AllocAppend(16, tail)
	if err != nil || len(second) != 1 {
		t.Fatalf("tail append: %v %v", second, err)
	}
	if second[0].Start != first[0].End() {
		t.Fatalf("append not contiguous: %v then %v", first, second)
	}
}

func TestRunCacheLogGating(t *testing.T) {
	rc := NewRunCache(100, 0)
	runs, _ := rc.Alloc(60)
	for _, r := range runs {
		rc.Free(r)
	}
	if rc.FreeClusters() != 40 {
		t.Fatalf("freed space reusable before commit: free=%d", rc.FreeClusters())
	}
	if rc.PendingClusters() != 60 {
		t.Fatalf("pending = %d", rc.PendingClusters())
	}
	rc.CommitLog()
	if rc.FreeClusters() != 100 || rc.PendingClusters() != 0 {
		t.Fatalf("after commit: free=%d pending=%d", rc.FreeClusters(), rc.PendingClusters())
	}
	// Coalesced back to a single run.
	if rc.RunCount() != 1 {
		t.Fatalf("RunCount = %d, want 1", rc.RunCount())
	}
}

func TestRunCacheForcedCommitUnderPressure(t *testing.T) {
	rc := NewRunCache(100, 0)
	runs, _ := rc.Alloc(90)
	for _, r := range runs {
		rc.Free(r)
	}
	// Only 10 immediately free, but 90 pending: a 50-cluster request must
	// force the log commit rather than fail.
	got, err := rc.Alloc(50)
	if err != nil {
		t.Fatalf("alloc under pressure failed: %v", err)
	}
	if total(got) != 50 {
		t.Fatalf("got %d clusters", total(got))
	}
}

func TestRunCacheOuterBandPreference(t *testing.T) {
	rc := NewRunCache(1000, 0.5)
	// Consume everything, then free one hole in the outer band and one in
	// the inner half.
	all, _ := rc.Alloc(1000)
	if len(all) != 1 {
		t.Fatalf("expected single run, got %v", all)
	}
	rc.Free(extent.Run{Start: 100, Len: 50})
	rc.Free(extent.Run{Start: 800, Len: 50})
	rc.CommitLog()
	runs, err := rc.AllocAppend(20, -1)
	if err != nil || runs[0].Start != 100 {
		t.Fatalf("outer band not preferred: %v %v", runs, err)
	}
}

func TestRunCacheFragmentsWhenNoFit(t *testing.T) {
	rc := NewRunCache(100, 0)
	all, _ := rc.Alloc(100)
	rc.Free(extent.Run{Start: 10, Len: 10})
	rc.Free(extent.Run{Start: 50, Len: 10})
	rc.CommitLog()
	runs, err := rc.Alloc(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expected fragmentation into 2 runs, got %v", runs)
	}
	_ = all
}

// TestRunCacheTakeContiguous pins the whole-run request a relocation
// makes: the lowest-offset run that holds all of it, or nothing taken
// and nothing quarantined; under pressure it commits the log first, as
// Alloc does.
func TestRunCacheTakeContiguous(t *testing.T) {
	rc := NewRunCache(100, 0)
	rc.Alloc(100)
	rc.Free(extent.Run{Start: 10, Len: 10})
	rc.Free(extent.Run{Start: 40, Len: 20})
	rc.Free(extent.Run{Start: 70, Len: 20})
	rc.CommitLog()
	if r, ok := rc.TakeContiguous(15); !ok || r != (extent.Run{Start: 40, Len: 15}) {
		t.Fatalf("TakeContiguous(15) = %v, %v; want the first run that holds it", r, ok)
	}
	if r, ok := rc.TakeContiguous(25); ok {
		t.Fatalf("TakeContiguous(25) = %v with no 25-cluster run free", r)
	}
	if rc.FreeClusters() != 35 || rc.PendingClusters() != 0 {
		t.Fatalf("a refusal moved space: free %d, pending %d", rc.FreeClusters(), rc.PendingClusters())
	}
	if _, ok := rc.TakeContiguous(0); ok {
		t.Fatal("TakeContiguous(0) granted a run")
	}
	// 35 clusters free and 30 pending, which coalesce into [0, 40).
	rc.Free(extent.Run{Start: 0, Len: 10})
	rc.Free(extent.Run{Start: 20, Len: 20})
	if r, ok := rc.TakeContiguous(40); !ok || r != (extent.Run{Start: 0, Len: 40}) {
		t.Fatalf("TakeContiguous(40) under pressure = %v, %v; want [0, 40)", r, ok)
	}
	rc.CheckInvariants()
}

func TestBuddyBasic(t *testing.T) {
	b := NewBuddy(1024)
	runs, err := b.Alloc(100) // rounds to 128
	if err != nil || len(runs) != 1 || runs[0].Len != 128 {
		t.Fatalf("Alloc(100) = %v, %v", runs, err)
	}
	if b.FreeClusters() != 1024-128 {
		t.Fatalf("free = %d", b.FreeClusters())
	}
	b.Free(runs[0])
	if b.FreeClusters() != 1024 {
		t.Fatalf("free after Free = %d", b.FreeClusters())
	}
	// Full coalescing: can allocate the whole volume again.
	whole, err := b.Alloc(1024)
	if err != nil || whole[0].Len != 1024 {
		t.Fatalf("whole-volume alloc failed after coalesce: %v %v", whole, err)
	}
}

func TestBuddyNeverFragments(t *testing.T) {
	b := NewBuddy(1 << 16)
	rng := rand.New(rand.NewSource(1))
	var held []extent.Run
	for i := 0; i < 2000; i++ {
		if rng.Intn(2) == 0 {
			n := rng.Int63n(200) + 1
			runs, err := b.Alloc(n)
			if err == nil {
				if len(runs) != 1 {
					t.Fatalf("buddy returned %d runs", len(runs))
				}
				held = append(held, runs[0])
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			b.Free(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
}

func TestBuddyAlignment(t *testing.T) {
	b := NewBuddy(1 << 12)
	for i := 0; i < 20; i++ {
		runs, err := b.Alloc(48) // rounds to 64
		if err != nil {
			break
		}
		if runs[0].Start%64 != 0 {
			t.Fatalf("block at %d not 64-aligned", runs[0].Start)
		}
	}
}

// Property: every policy conserves clusters over random workloads and
// never double-allocates.
func TestQuickPolicyConservation(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		const vol = 1 << 12
		var p Policy
		switch which % 5 {
		case 0:
			p = NewFirstFit(vol)
		case 1:
			p = NewBestFit(vol)
		case 2:
			p = NewWorstFit(vol)
		case 3:
			p = NewNextFit(vol)
		case 4:
			rc := NewRunCache(vol, 0.3)
			p = rc
		}
		rng := rand.New(rand.NewSource(seed))
		used := make([]bool, vol)
		var held [][]extent.Run
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 {
				runs, err := p.Alloc(rng.Int63n(100) + 1)
				if err != nil {
					continue
				}
				for _, r := range runs {
					for c := r.Start; c < r.End(); c++ {
						if used[c] {
							return false // double allocation
						}
						used[c] = true
					}
				}
				held = append(held, runs)
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				for _, r := range held[i] {
					p.Free(r)
					for c := r.Start; c < r.End(); c++ {
						used[c] = false
					}
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			if rc, ok := p.(*RunCache); ok && op%50 == 49 {
				rc.CommitLog()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// agedVolume is an 8 GB run-cache volume of objects of 256 KB–1 MB, each
// written in 64 KB appends, every one a tail-extending AllocAppendScratch,
// into a run list the volume owns and reuses. A replace writes a random
// object's new version before it frees the old one, and the log commits
// every commitEvery replaces.
type agedVolume struct {
	rc          *RunCache
	rng         *rand.Rand
	objs        [][]extent.Run
	spare       []extent.Run
	commitEvery int
	replaces    int
	requests    int // allocation requests made
	frags       int // fragments of the versions written by replace
}

const (
	agedCluster = 4 * units.KB
	agedRequest = 64 * units.KB / agedCluster
)

// newAgedVolume writes objects objects to a fresh volume, then ages it
// with ages*objects replaces.
func newAgedVolume(tb testing.TB, objects, ages, commitEvery int) *agedVolume {
	v := &agedVolume{
		rc:          NewRunCache(8*units.GB/agedCluster, 0),
		rng:         rand.New(rand.NewSource(1)),
		objs:        make([][]extent.Run, objects),
		spare:       make([]extent.Run, 0, 64),
		commitEvery: commitEvery,
	}
	for i := range v.objs {
		v.objs[i] = v.write(tb, make([]extent.Run, 0, 64))
	}
	for i := 0; i < ages*objects; i++ {
		v.replace(tb)
	}
	return v
}

// write allocates one object into dst[:0], merging runs that abut.
func (v *agedVolume) write(tb testing.TB, dst []extent.Run) []extent.Run {
	dst = dst[:0]
	tail := int64(-1)
	for n := (256 + v.rng.Int63n(769)) * units.KB / agedCluster; n > 0; n -= agedRequest {
		runs, err := v.rc.AllocAppendScratch(min(n, agedRequest), tail)
		if err != nil {
			tb.Fatal(err)
		}
		v.requests++
		for _, r := range runs {
			if k := len(dst); k > 0 && dst[k-1].End() == r.Start {
				dst[k-1].Len += r.Len
			} else {
				dst = append(dst, r)
			}
		}
		tail = dst[len(dst)-1].End() - 1
	}
	return dst
}

func (v *agedVolume) replace(tb testing.TB) {
	i := v.rng.Intn(len(v.objs))
	v.spare = v.write(tb, v.spare)
	for _, r := range v.objs[i] {
		v.rc.Free(r)
	}
	v.objs[i], v.spare = v.spare, v.objs[i]
	v.frags += len(v.objs[i])
	if v.replaces++; v.replaces%v.commitEvery == 0 {
		v.rc.CommitLog()
	}
}

// TestRunCacheAllocationBudget pins what the free-space index costs the
// host per replace on an aged 8 GB volume, about 92 % full: no allocation.
func TestRunCacheAllocationBudget(t *testing.T) {
	v := newAgedVolume(t, 12000, 6, 8)
	const runs = 2000
	v.frags = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		v.replace(t)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	frags := float64(v.frags) / runs
	t.Logf("%.3f allocations, %.1f bytes per replace at %.1f fragments/object, %d free runs", allocs, bytes, frags, v.rc.RunCount())
	if frags < 4 || v.rc.RunCount() < 500 {
		t.Fatalf("volume not aged: %.1f fragments/object, %d free runs", frags, v.rc.RunCount())
	}
	if allocs > 0.01 {
		t.Errorf("a replace allocates %.3f objects (%.1f bytes); want none", allocs, bytes)
	}
}

package extent

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRunBasics(t *testing.T) {
	r := Run{Start: 10, Len: 5}
	if r.End() != 15 {
		t.Fatalf("End = %d", r.End())
	}
	if !r.Contains(10) || !r.Contains(14) || r.Contains(15) || r.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !r.Overlaps(Run{Start: 14, Len: 1}) || r.Overlaps(Run{Start: 15, Len: 1}) {
		t.Fatal("Overlaps wrong")
	}
}

func TestFreeCoalesce(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 10})
	f.Free(Run{Start: 20, Len: 10})
	if f.RunCount() != 2 {
		t.Fatalf("RunCount = %d, want 2", f.RunCount())
	}
	// Fill the gap: all three coalesce into one run.
	f.Free(Run{Start: 10, Len: 10})
	if f.RunCount() != 1 {
		t.Fatalf("RunCount after merge = %d, want 1", f.RunCount())
	}
	if runs := f.Runs(); runs[0] != (Run{Start: 0, Len: 30}) {
		t.Fatalf("Runs = %v", runs)
	}
	if f.FreeClusters() != 30 {
		t.Fatalf("FreeClusters = %d", f.FreeClusters())
	}
	f.CheckInvariants()
}

func TestDoubleFreePanics(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Free(Run{Start: 5, Len: 2})
}

func TestTakeFirstFit(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 100, Len: 4})
	f.Free(Run{Start: 0, Len: 2})
	f.Free(Run{Start: 50, Len: 8})
	r, ok := f.TakeFirstFit(3)
	if !ok || r != (Run{Start: 50, Len: 3}) {
		t.Fatalf("TakeFirstFit(3) = %v,%v; want [50,+3)", r, ok)
	}
	// Remainder of the split run must still be free.
	if runs := f.Runs(); !slices.Equal(runs, []Run{{0, 2}, {53, 5}, {100, 4}}) {
		t.Fatalf("split remainder not free: %v", runs)
	}
	if _, ok := f.TakeFirstFit(100); ok {
		t.Fatal("oversized TakeFirstFit succeeded")
	}
	f.CheckInvariants()
}

func TestTakeBestFit(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 10})
	f.Free(Run{Start: 20, Len: 4})
	f.Free(Run{Start: 40, Len: 6})
	r, ok := f.TakeBestFit(4)
	if !ok || r != (Run{Start: 20, Len: 4}) {
		t.Fatalf("TakeBestFit(4) = %v, want exact [20,+4)", r)
	}
	r, ok = f.TakeBestFit(5)
	if !ok || r != (Run{Start: 40, Len: 5}) {
		t.Fatalf("TakeBestFit(5) = %v, want [40,+5)", r)
	}
	f.CheckInvariants()
}

func TestTakeWorstFit(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 10})
	f.Free(Run{Start: 20, Len: 4})
	r, ok := f.TakeWorstFit(2)
	if !ok || r != (Run{Start: 0, Len: 2}) {
		t.Fatalf("TakeWorstFit = %v", r)
	}
	f.CheckInvariants()
}

func TestTakeNextFit(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 5})
	f.Free(Run{Start: 10, Len: 5})
	f.Free(Run{Start: 20, Len: 5})
	r, cur, ok := f.TakeNextFit(3, 8)
	if !ok || r.Start != 10 || cur != 13 {
		t.Fatalf("TakeNextFit from 8 = %v cur=%d", r, cur)
	}
	// Wraps around when nothing ahead fits.
	r, _, ok = f.TakeNextFit(5, 21)
	if !ok || r.Start != 0 {
		t.Fatalf("TakeNextFit wrap = %v", r)
	}
	f.CheckInvariants()
}

func TestTakeUpTo(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 3})
	f.Free(Run{Start: 10, Len: 8})
	r, ok := f.TakeUpTo(100)
	if !ok || r != (Run{Start: 10, Len: 8}) {
		t.Fatalf("TakeUpTo = %v", r)
	}
	r, ok = f.TakeUpTo(2)
	if !ok || r != (Run{Start: 0, Len: 2}) {
		t.Fatalf("TakeUpTo(2) = %v", r)
	}
	f.CheckInvariants()
}

func TestExtendAt(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 10, Len: 10})
	if !f.Reserve(Run{Start: 12, Len: 3}) {
		t.Fatal("Reserve failed")
	}
	// [10,12) and [15,20) remain.
	r, ok := f.ExtendAt(15, 100)
	if !ok || r != (Run{Start: 15, Len: 5}) {
		t.Fatalf("ExtendAt = %v", r)
	}
	if _, ok := f.ExtendAt(15, 1); ok {
		t.Fatal("ExtendAt on used space succeeded")
	}
	f.CheckInvariants()
}

func TestReserve(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 100})
	if !f.Reserve(Run{Start: 40, Len: 20}) {
		t.Fatal("Reserve failed")
	}
	if runs := f.Runs(); !slices.Equal(runs, []Run{{0, 40}, {60, 40}}) {
		t.Fatalf("after Reserve: free runs %v, want the split remainders", runs)
	}
	if f.Reserve(Run{Start: 30, Len: 20}) {
		t.Fatal("Reserve spanning used space succeeded")
	}
	f.CheckInvariants()
}

// Property: random alloc/free cycles conserve clusters exactly and never
// produce overlapping or uncoalesced free runs.
func TestQuickConservation(t *testing.T) {
	const volume = 1 << 14
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fi := NewFreeIndex()
		fi.Free(Run{Start: 0, Len: volume})
		var held []Run
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 && fi.FreeClusters() > 0 {
				n := rng.Int63n(64) + 1
				var r Run
				var ok bool
				switch rng.Intn(4) {
				case 0:
					r, ok = fi.TakeFirstFit(n)
				case 1:
					r, ok = fi.TakeBestFit(n)
				case 2:
					r, ok = fi.TakeWorstFit(n)
				case 3:
					r, ok = fi.TakeUpTo(n)
				}
				if ok {
					held = append(held, r)
				}
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				fi.Free(held[i])
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			var heldSum int64
			for _, r := range held {
				heldSum += r.Len
			}
			if heldSum+fi.FreeClusters() != volume {
				return false
			}
		}
		fi.CheckInvariants()
		// Free everything back: must coalesce to a single full-volume run.
		for _, r := range held {
			fi.Free(r)
		}
		return fi.RunCount() == 1 && fi.FreeClusters() == volume
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFitTightensStaleBound pins when a bucket's bound goes stale and
// when it is made exact: shrinking the longest run only marks the bucket,
// and a first-fit query that scans the whole bucket without a fit records
// its true longest run, so the next query skips it unscanned.
func TestFirstFitTightensStaleBound(t *testing.T) {
	f := NewFreeIndex()
	for i := int64(0); i < 2*bucketSize+2; i++ {
		r := Run{Start: i * 100, Len: 1 + i%3}
		switch i {
		case 10:
			r.Len = 50
		case 100:
			r.Len = 60
		}
		f.Free(r)
	}
	if len(f.buckets) != 2 {
		t.Fatalf("%d buckets, want 2", len(f.buckets))
	}
	bound := func(bi int) (int64, bool) { return f.buckets[bi].max, f.buckets[bi].stale }
	if r, ok := f.TakeFirstFit(40); !ok || r != (Run{Start: 1000, Len: 40}) {
		t.Fatalf("TakeFirstFit(40) = %v, %v", r, ok)
	}
	if m, stale := bound(0); m != 50 || !stale {
		t.Fatalf("after shrinking the longest run, bucket 0 bound %d stale %t; want 50 stale", m, stale)
	}
	f.CheckInvariants()
	if r, ok := f.TakeFirstFit(20); !ok || r != (Run{Start: 10000, Len: 20}) {
		t.Fatalf("TakeFirstFit(20) = %v, %v", r, ok)
	}
	if m, stale := bound(0); m != 10 || stale {
		t.Fatalf("after a scan without a fit, bucket 0 bound %d stale %t; want exact 10", m, stale)
	}
	if m, stale := bound(1); m != 60 || !stale {
		t.Fatalf("bucket 1 bound %d stale %t; want 60 stale", m, stale)
	}
	f.CheckInvariants()
	if r, ok := f.TakeWorstFit(1); !ok || r != (Run{Start: 10020, Len: 1}) {
		t.Fatalf("TakeWorstFit(1) = %v, %v", r, ok)
	}
	f.CheckInvariants()
}

// TestCheckInvariantsBound pins what CheckInvariants accepts of a bucket's
// bound: above its longest run only when marked stale, never below it.
func TestCheckInvariantsBound(t *testing.T) {
	f := NewFreeIndex()
	f.Free(Run{Start: 0, Len: 10})
	f.Free(Run{Start: 20, Len: 5})
	for _, c := range []struct {
		max       int64
		stale, ok bool
	}{{10, false, true}, {10, true, true}, {12, true, true}, {12, false, false}, {9, true, false}, {9, false, false}} {
		f.buckets[0].max, f.buckets[0].stale = c.max, c.stale
		if ok := !mustPanic(f.CheckInvariants); ok != c.ok {
			t.Errorf("bound %d stale %t over a longest run of 10: accepted %t, want %t", c.max, c.stale, ok, c.ok)
		}
	}
}

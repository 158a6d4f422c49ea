package extent

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refIndex is the trivially-correct model of FreeIndex: the free runs in
// one sorted slice, every query a linear scan. It counts the structural
// paths it takes so the differential test can require each of them.
type refIndex struct {
	runs  []Run
	paths map[string]int
}

func (x *refIndex) free() int64 { return SumLen(x.runs) }

// Free coalesces r into the runs; ok=false (and no change) for a double
// free.
func (x *refIndex) Free(r Run) bool {
	i := 0
	for i < len(x.runs) && x.runs[i].Start <= r.Start {
		i++
	}
	if i > 0 && x.runs[i-1].Overlaps(r) || i < len(x.runs) && x.runs[i].Overlaps(r) {
		return false
	}
	prev := i > 0 && x.runs[i-1].End() == r.Start
	next := i < len(x.runs) && r.End() == x.runs[i].Start
	switch {
	case prev && next:
		x.paths["coalesce both sides"]++
		x.runs[i-1].Len += r.Len + x.runs[i].Len
		x.runs = slices.Delete(x.runs, i, i+1)
	case prev:
		x.runs[i-1].Len += r.Len
	case next:
		x.runs[i] = Run{Start: r.Start, Len: r.Len + x.runs[i].Len}
	default:
		x.runs = slices.Insert(x.runs, i, r)
	}
	return true
}

// cut removes r from run i, which contains it.
func (x *refIndex) cut(i int, r Run) Run {
	host := x.runs[i]
	var rest []Run
	if host.Start < r.Start {
		rest = append(rest, Run{Start: host.Start, Len: r.Start - host.Start})
	}
	if r.End() < host.End() {
		rest = append(rest, Run{Start: r.End(), Len: host.End() - r.End()})
	}
	if len(rest) == 2 {
		x.paths["mid-run split"]++
	}
	x.runs = slices.Replace(x.runs, i, i+1, rest...)
	return r
}

func (x *refIndex) Reserve(r Run) bool {
	for i, h := range x.runs {
		if r.Len > 0 && h.Start <= r.Start && r.End() <= h.End() {
			x.cut(i, r)
			return true
		}
	}
	return false
}

func (x *refIndex) TakeFirstFitBelow(n, limit int64) (Run, bool) {
	for i, h := range x.runs {
		if h.Start < limit && h.Len >= n {
			return x.cut(i, Run{Start: h.Start, Len: n}), true
		}
	}
	for _, h := range x.runs {
		if h.Len >= n {
			x.paths["below miss at the limit"]++
			break
		}
	}
	return Run{}, false
}

func (x *refIndex) TakeBestFit(n int64) (Run, bool) {
	best := -1
	for i, h := range x.runs {
		if h.Len >= n && (best < 0 || h.Len < x.runs[best].Len) {
			best = i
		}
	}
	if best < 0 {
		return Run{}, false
	}
	return x.cut(best, Run{Start: x.runs[best].Start, Len: n}), true
}

// largest is the largest run, ties to the highest offset.
func (x *refIndex) largest() int {
	big := -1
	for i, h := range x.runs {
		if big < 0 || h.Len >= x.runs[big].Len {
			big = i
		}
	}
	return big
}

func (x *refIndex) TakeWorstFit(n int64) (Run, bool) {
	i := x.largest()
	if i < 0 || x.runs[i].Len < n {
		return Run{}, false
	}
	return x.cut(i, Run{Start: x.runs[i].Start, Len: n}), true
}

func (x *refIndex) TakeUpTo(n int64) (Run, bool) {
	i := x.largest()
	if i < 0 {
		return Run{}, false
	}
	return x.cut(i, Run{Start: x.runs[i].Start, Len: min(n, x.runs[i].Len)}), true
}

func (x *refIndex) TakeNextFit(n, cursor int64) (Run, int64, bool) {
	for _, wrapped := range []bool{false, true} {
		for i, h := range x.runs {
			if (h.Start >= cursor) != wrapped && h.Len >= n {
				if wrapped {
					x.paths["next-fit wrap"]++
				}
				r := x.cut(i, Run{Start: h.Start, Len: n})
				return r, r.End(), true
			}
		}
	}
	return Run{}, cursor, false
}

func (x *refIndex) ExtendAt(start, n int64) (Run, bool) {
	for i, h := range x.runs {
		if h.Contains(start) {
			return x.cut(i, Run{Start: start, Len: min(n, h.End()-start)}), true
		}
	}
	return Run{}, false
}

// hinted returns the run at the hinted position, if it names one.
func hinted(f *FreeIndex) (Run, bool) {
	if f.hintB >= len(f.buckets) || f.hintR >= len(f.buckets[f.hintB].runs) {
		return Run{}, false
	}
	return f.at(f.hintB, f.hintR), true
}

// hintPath names the way FreeIndex.floor finds the last run at or before
// c: "hint hit" when that run lies within hintSteps runs from the hinted
// position onward, so floor needs no search, else "hint miss".
func hintPath(f *FreeIndex, c int64) string {
	if _, ok := hinted(f); !ok {
		return "hint miss"
	}
	h := f.hintR
	for _, b := range f.buckets[:f.hintB] {
		h += len(b.runs)
	}
	runs := f.Runs()
	floor := len(runs) - 1
	for floor >= 0 && runs[floor].Start > c {
		floor--
	}
	if floor >= h && floor-h < hintSteps {
		return "hint hit"
	}
	return "hint miss"
}

// TestFreeIndexMatchesReference drives FreeIndex and refIndex with the same
// seeded op sequences — every Take variant, TakeFirstFitBelow with a random
// limit, Reserve inside and across free runs, ExtendAt at held tails and in
// chains at the end of the run just taken (an append), frees of whole and
// partial held runs, often beside the hinted run, and double frees — and
// requires identical results and counts after every op. Half the takes
// made while some bucket's bound is stale are the queries that must
// tighten it. The op mix swings between taking and freeing so the run
// count rises past a bucket's capacity and falls back, which splits
// buckets and empties them.
func TestFreeIndexMatchesReference(t *testing.T) {
	paths := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		volume := int64(1<<12 + rng.Intn(1<<14))
		fi, ref := NewFreeIndex(), &refIndex{paths: paths}
		fi.Free(Run{Start: 0, Len: volume})
		ref.Free(Run{Start: 0, Len: volume})
		var held []Run
		var cursor int64
		var last Run // the run the previous op took, if lastOK
		var lastOK bool
		// Lengths from a narrow range, so runs tie on length often and
		// every tie rule decides some outcome.
		size := func() int64 {
			if rng.Intn(8) == 0 {
				return 1 + rng.Int63n(96)
			}
			return 1 + rng.Int63n(6)
		}
		// inFree returns a run inside a random free run.
		inFree := func() Run {
			h := ref.runs[rng.Intn(len(ref.runs))]
			lo := rng.Int63n(h.Len)
			return Run{Start: h.Start + lo, Len: 1 + rng.Int63n(h.Len-lo)}
		}
		// somewhere returns a run inside a random free run, or anywhere on
		// the volume; either may be taken.
		somewhere := func() Run {
			if rng.Intn(3) > 0 && len(ref.runs) > 0 {
				return inFree()
			}
			return Run{Start: rng.Int63n(volume), Len: size()}
		}
		// extend runs ExtendAt(start, n) on both indexes.
		extend := func(start int64) (desc string, got, want Run, gotOK, wantOK bool) {
			n := size() * 4
			paths[hintPath(fi, start)]++
			got, gotOK = fi.ExtendAt(start, n)
			want, wantOK = ref.ExtendAt(start, n)
			return fmt.Sprintf("ExtendAt(%d, %d)", start, n), got, want, gotOK, wantOK
		}
		// 2,000 mixed ops, then frees until nothing is held.
		for op := 0; op < 2000 || len(held) > 0; op++ {
			var desc string
			var got, want Run
			var gotOK, wantOK bool
			buckets := len(fi.buckets)
			type bound struct {
				max   int64
				stale bool
			}
			bounds := make([]bound, len(fi.buckets))
			stale := false
			for i, b := range fi.buckets {
				bounds[i] = bound{b.max, b.stale}
				stale = stale || b.stale
			}
			taking := 75
			if op/500%2 == 1 {
				taking = 25
			}
			if op == 2000 && !slices.Equal(fi.Runs(), ref.runs) {
				t.Fatalf("seed %d: runs differ after the mixed ops:\n%v\n%v", seed, fi.Runs(), ref.runs)
			}
			appending := op < 2000 && lastOK && rng.Intn(3) == 0
			switch k := rng.Intn(100); {
			case appending:
				// The next request of an append starts where the last ended.
				desc, got, want, gotOK, wantOK = extend(last.End())
			case op < 2000 && (k < taking || len(held) == 0):
				n := size()
				kind := rng.Intn(7)
				if stale && rng.Intn(2) == 0 {
					kind = 2 + rng.Intn(4) // best, worst, next fit or up-to
				}
				switch kind {
				case 0:
					desc = fmt.Sprintf("TakeFirstFit(%d)", n)
					got, gotOK = fi.TakeFirstFit(n)
					want, wantOK = ref.TakeFirstFitBelow(n, 1<<62)
				case 1:
					limit := rng.Int63n(volume)
					desc = fmt.Sprintf("TakeFirstFitBelow(%d, %d)", n, limit)
					got, gotOK = fi.TakeFirstFitBelow(n, limit)
					want, wantOK = ref.TakeFirstFitBelow(n, limit)
				case 2:
					desc = fmt.Sprintf("TakeBestFit(%d)", n)
					got, gotOK = fi.TakeBestFit(n)
					want, wantOK = ref.TakeBestFit(n)
				case 3:
					desc = fmt.Sprintf("TakeWorstFit(%d)", n)
					got, gotOK = fi.TakeWorstFit(n)
					want, wantOK = ref.TakeWorstFit(n)
				case 4:
					if rng.Intn(4) == 0 {
						cursor = rng.Int63n(volume)
					}
					desc = fmt.Sprintf("TakeNextFit(%d, %d)", n, cursor)
					paths[hintPath(fi, cursor-1)]++
					var gotCur, wantCur int64
					got, gotCur, gotOK = fi.TakeNextFit(n, cursor)
					want, wantCur, wantOK = ref.TakeNextFit(n, cursor)
					if gotCur != wantCur {
						t.Fatalf("seed %d op %d %s: cursor %d, reference %d", seed, op, desc, gotCur, wantCur)
					}
					cursor = gotCur
				case 5:
					n *= 8
					desc = fmt.Sprintf("TakeUpTo(%d)", n)
					got, gotOK = fi.TakeUpTo(n)
					want, wantOK = ref.TakeUpTo(n)
				case 6:
					r := somewhere()
					desc = fmt.Sprintf("Reserve(%v)", r)
					paths[hintPath(fi, r.Start)]++
					got, gotOK = r, fi.Reserve(r)
					if !gotOK {
						got = Run{}
					}
					if wantOK = ref.Reserve(r); wantOK {
						want = r
					}
				}
			case op < 2000 && k < taking+8:
				// Tail extension: grow a held run in place, as an append does.
				start := held[rng.Intn(len(held))].End()
				if rng.Intn(4) == 0 {
					start = rng.Int63n(volume)
				}
				desc, got, want, gotOK, wantOK = extend(start)
			case op >= 2000 || k < 98:
				// Free a held run, or a piece of one; the rest stays held.
				// Half the time it is one beside the hinted run, if any is.
				j := rng.Intn(len(held))
				if h, ok := hinted(fi); ok && rng.Intn(2) == 0 {
					if i := slices.IndexFunc(held, func(r Run) bool { return r.End() == h.Start || r.Start == h.End() }); i >= 0 {
						j = i
					}
				}
				h := held[j]
				r := h
				if rng.Intn(2) == 0 {
					lo := rng.Int63n(h.Len)
					r = Run{Start: h.Start + lo, Len: 1 + rng.Int63n(h.Len-lo)}
				}
				held = slices.Delete(held, j, j+1)
				if r.Start > h.Start {
					held = append(held, Run{Start: h.Start, Len: r.Start - h.Start})
				}
				if r.End() < h.End() {
					held = append(held, Run{Start: r.End(), Len: h.End() - r.End()})
				}
				desc = fmt.Sprintf("Free(%v)", r)
				paths[hintPath(fi, r.Start)]++
				fi.Free(r)
				if !ref.Free(r) {
					t.Fatalf("seed %d op %d: reference rejects %s of a held run", seed, op, desc)
				}
			default:
				if len(ref.runs) == 0 {
					continue
				}
				r := inFree()
				desc = fmt.Sprintf("double Free(%v)", r)
				if !mustPanic(func() { fi.Free(r) }) {
					t.Fatalf("seed %d op %d: %s did not panic", seed, op, desc)
				}
				paths["double free"]++
			}
			if gotOK {
				held = append(held, got)
			}
			last, lastOK = got, gotOK
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d op %d %s: got %v %v, reference %v %v", seed, op, desc, got, gotOK, want, wantOK)
			}
			fi.CheckInvariants()
			if fi.FreeClusters() != ref.free() || fi.RunCount() != len(ref.runs) {
				t.Fatalf("seed %d after op %d %s: free %d/%d runs %d/%d (index/reference)", seed, op, desc,
					fi.FreeClusters(), ref.free(), fi.RunCount(), len(ref.runs))
			}
			switch {
			case len(fi.buckets) > buckets:
				paths["bucket split"]++
			case len(fi.buckets) < buckets:
				paths["empty bucket dropped"]++
			default:
				// Only a query lowers a stale bound to an exact one.
				for i, b := range fi.buckets {
					if bounds[i].stale && !b.stale && b.max < bounds[i].max {
						paths["stale bound tightened"]++
					}
				}
			}
		}
		if runs := fi.Runs(); len(runs) != 1 || runs[0] != (Run{Start: 0, Len: volume}) {
			t.Fatalf("seed %d: free runs %v after freeing everything", seed, runs)
		}
	}
	t.Logf("paths: %v", paths)
	for _, p := range []string{"bucket split", "empty bucket dropped", "coalesce both sides", "next-fit wrap",
		"below miss at the limit", "mid-run split", "double free", "hint hit", "hint miss", "stale bound tightened"} {
		if paths[p] < 80 {
			t.Errorf("%s ran %d times, want at least 80", p, paths[p])
		}
	}
}

func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

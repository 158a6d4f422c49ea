package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/alloc"
	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/fs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Pathological reproduces §5.3's observation: on an artificially and
// pathologically fragmented NTFS volume, fragmentation slowly DECREASES
// over time — evidence the filesystem's curve is an asymptote approached
// from both sides.
func Pathological(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Pathological volume recovery", "Storage Age", "Fragments/object")
	err := c.fragCurve(t, stack.File, workload.Constant{Size: 10 * units.MB}, "Filesystem (pre-shattered)",
		func(store blob.Store) {
			vol, _ := blob.As[*core.FileStore](store)
			c.logf("patho: shattered to %.1f fragments/object", vol.Volume().ShatterFiles(16))
		})
	if err != nil {
		return nil, err
	}
	t.Note("the volume starts artificially shattered; churn slowly repairs it toward the natural asymptote (§5.3)")
	return []*stats.Table{t}, nil
}

// SizeHintAblation compares the stock filesystem against the two
// interface fixes the paper proposes (§5.4, §6): passing the known object
// size at creation, and delayed allocation.
func SizeHintAblation(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Size-hint / delayed-allocation ablation", "Storage Age", "Fragments/object")
	dist := workload.Constant{Size: 10 * units.MB}
	variants := []struct {
		name  string
		extra []blob.Option
	}{
		{"No hint (stock)", nil},
		{"Size hint", []blob.Option{blob.WithSizeHint()}},
		{"Delayed allocation", []blob.Option{blob.WithDelayedAllocation()}},
	}
	for _, v := range variants {
		c.logf("hint: variant %q", v.name)
		if err := c.fragCurve(t, stack.File, dist, v.name, nil, v.extra...); err != nil {
			return nil, err
		}
	}
	t.Note("§6: \"The ability to specify the size of the object before initial space allocation could reduce fragmentation.\"")
	return []*stats.Table{t}, nil
}

// WriteRequestSweep varies the client write-request size on both systems
// and measures fragmentation at a fixed storage age — the §5.3/§5.4
// observation that request size shapes long-term fragmentation.
func WriteRequestSweep(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Write request size sweep", "Request size (KB)", "Fragments/object")
	reqSizes := []int64{16 * units.KB, 64 * units.KB, 256 * units.KB, 1 * units.MB}
	targetAge := c.MaxAge / 2
	dist := workload.Constant{Size: 10 * units.MB}
	for _, st := range systems {
		t.AddSeries(st.name)
	}
	for _, req := range reqSizes {
		c.logf("wreq: request size %s", units.FormatBytes(req))
		for i, st := range systems {
			spec := c.spec(st.backend)
			spec.Options = append(spec.Options, blob.WithWriteRequestSize(req))
			err := c.age(vclock.New(), spec, dist, []float64{targetAge}, drive{}, func(a arm) error {
				t.Series[i].Add(float64(req/units.KB), meanFrags(a.store))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	t.Note("fragments at storage age %.1f; larger append requests give the allocator more information (§5.4)", targetAge)
	return []*stats.Table{t}, nil
}

// InterleavedAppend measures what the paper's §6 leaves as future work:
// "interleaved append requests to multiple objects, which are likely to
// increase fragmentation." k writers append 64 KB requests round-robin
// to k fresh files on a clean volume.
func InterleavedAppend(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Interleaved append fragmentation", "Concurrent streams", "Fragments/file")
	s := t.AddSeries("Filesystem")
	const objSize = 10 * units.MB
	const req = 64 * units.KB
	for _, k := range []int{1, 2, 4, 8, 16} {
		drive := disk.New(disk.DefaultGeometry(c.VolumeBytes), vclock.New(), disk.MetadataMode)
		vol := fs.Format(drive, fs.Config{})
		files := make([]*fs.File, k)
		for i := range files {
			f, err := vol.Create(fmt.Sprintf("stream-%d", i))
			if err != nil {
				return nil, err
			}
			files[i] = f
		}
		for off := int64(0); off < objSize; off += req {
			for _, f := range files {
				if err := f.Append(req, nil); err != nil {
					return nil, err
				}
			}
		}
		total := 0
		for _, f := range files {
			if err := f.Close(); err != nil {
				return nil, err
			}
			total += f.Fragments()
		}
		mean := float64(total) / float64(k)
		s.Add(float64(k), mean)
		c.logf("ileave k=%d: %.2f fragments/file", k, mean)
	}
	t.Note("clean volume; interleaving alone defeats sequential-append detection (§6)")
	return []*stats.Table{t}, nil
}

// PolicyComparison replays the aging workload shape against the classic
// allocation policies of §3.2/§3.4 plus the NTFS-style run cache,
// measuring fragments/object over storage age: each arm replaces random
// objects until its retired requested clusters reach the age point ×
// its live ones (§4.4's definition). Object sizes are uniform
// around a 10 MB mean: with a bare allocator and no metadata traffic,
// constant sizes recycle perfectly under every policy (the §5.4
// intuition the real systems defeat), so the uniform distribution is
// what separates the policies. The buddy system never fragments
// externally but pays internal fragmentation instead.
func PolicyComparison(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Allocation policy comparison (uniform 5-15 MB objects, 90% full)", "Storage Age", "Fragments/object")
	clusters := c.VolumeBytes / (4 * units.KB)
	meanClusters := int64(10*units.MB) / (4 * units.KB)
	reqClusters := int64(64*units.KB) / (4 * units.KB)
	// Run the shoot-out under space pressure: with half the volume free
	// and random deallocation, every classic policy looks optimal — the
	// clean-initial-conditions blind spot §3.3 describes in standard
	// benchmarks. Differences emerge near full.
	occupancy := max(c.Occupancy, 0.9)

	policies := []struct {
		name string
		mk   func() alloc.Policy
	}{
		{"first-fit", func() alloc.Policy { return alloc.NewFirstFit(clusters) }},
		{"best-fit", func() alloc.Policy { return alloc.NewBestFit(clusters) }},
		{"worst-fit", func() alloc.Policy { return alloc.NewWorstFit(clusters) }},
		{"next-fit", func() alloc.Policy { return alloc.NewNextFit(clusters) }},
		{"buddy", func() alloc.Policy { return alloc.NewBuddy(clusters) }},
		{"ntfs-run-cache", func() alloc.Policy { return alloc.NewRunCache(clusters, 0.35) }},
	}
	var replaces []string
	for _, pol := range policies {
		p := pol.mk()
		rng := rand.New(rand.NewSource(c.Seed))
		s := t.AddSeries(pol.name)
		c.logf("policy: %s", pol.name)

		sampleSize := func() int64 {
			return meanClusters/2 + rng.Int63n(meanClusters+1)
		}
		allocObject := func(objClusters int64) ([]extent.Run, error) {
			// The run cache sees per-request appends like the real
			// filesystem; classic policies allocate whole objects (they
			// have no append interface).
			if rc, ok := p.(*alloc.RunCache); ok {
				var runs []extent.Run
				tail := int64(-1)
				for got := int64(0); got < objClusters; got += reqClusters {
					n := min(reqClusters, objClusters-got)
					rs, err := rc.AllocAppend(n, tail)
					if err != nil {
						return nil, err
					}
					runs = append(runs, rs...)
					tail = rs[len(rs)-1].End() - 1
				}
				return runs, nil
			}
			return p.Alloc(objClusters)
		}

		// Bulk load to occupancy, counting the clusters each allocation
		// took: buddy's power-of-two rounding takes more than it was asked
		// for, and a volume loaded to its last block could not churn.
		// sizes holds each object's requested clusters, which storage age
		// counts (§4.4: retired over live).
		var objects [][]extent.Run
		var sizes []int64
		var live int64
		target := int64(occupancy * float64(clusters))
		for used := int64(0); used+meanClusters <= target; {
			size := sampleSize()
			runs, err := allocObject(size)
			if err != nil {
				break
			}
			objects = append(objects, runs)
			sizes = append(sizes, size)
			live += size
			used += extent.SumLen(runs)
		}
		if len(objects) == 0 {
			return nil, fmt.Errorf("policy %s: no objects loaded", pol.name)
		}
		meanRuns := func() float64 {
			totalF := 0
			for _, o := range objects {
				// Merge physically adjacent runs as the fs layer would.
				f := 0
				for i, r := range o {
					if i == 0 || o[i-1].End() != r.Start {
						f++
					}
				}
				totalF += f
			}
			return float64(totalF) / float64(len(objects))
		}
		s.Add(0, meanRuns())
		// Each step churns until the arm reaches the target storage age.
		// A replace allocates before it frees, so near full it can be
		// refused; it is skipped and counted, and an arm that refuses a
		// whole generation of replaces in a row cannot age at all.
		var retired int64
		ops, refused, streak := 0, 0, 0
		for _, age := range c.agePoints()[1:] {
			for float64(retired) < age*float64(live) {
				j := rng.Intn(len(objects))
				size := sampleSize()
				newRuns, err := allocObject(size)
				if err != nil {
					refused++
					if streak++; streak >= len(objects) {
						return nil, fmt.Errorf("policy %s: %d replaces in a row refused at age %.2f: %w",
							pol.name, streak, float64(retired)/float64(live), err)
					}
					continue
				}
				streak = 0
				for _, r := range objects[j] {
					p.Free(r)
				}
				objects[j] = newRuns
				retired += sizes[j]
				live += size - sizes[j]
				sizes[j] = size
				ops++
				if rc, ok := p.(*alloc.RunCache); ok && ops%16 == 0 {
					rc.CommitLog()
				}
			}
			s.Add(age, meanRuns())
			c.logf("  %s age %.1f: %.2f", pol.name, age, meanRuns())
		}
		replaces = append(replaces, fmt.Sprintf("%s %d/%d", pol.name, refused, ops+refused))
	}
	t.Note("replaces refused for space / attempted: %s", strings.Join(replaces, ", "))
	t.Note("abstract replay (no disk timing); buddy allocates power-of-two blocks, trading internal for external fragmentation (§3.4)")
	return []*stats.Table{t}, nil
}

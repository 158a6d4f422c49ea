package harness

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Table1 reports the simulated test-system configuration, the analog of
// the paper's Table 1 hardware description.
func Table1(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Table 1: Configuration of the (simulated) test system", "", "")
	d := disk.New(disk.DefaultGeometry(c.VolumeBytes), vclock.New(), disk.MetadataMode, disk.WithoutOwnerMap())
	geo := d.Geometry()
	t.Note("%s", d.String())
	t.Note("paper hardware: Tyan S2882, 1.8GHz Opteron 244, 2GB ECC, 4x Seagate 400GB ST3400832AS 7200rpm SATA")
	t.Note("cluster size %s, outer-band streaming %.0f MB/s, inner %.0f MB/s",
		units.FormatBytes(geo.ClusterSize), d.SequentialBandwidthMBps(0), d.SequentialBandwidthMBps(geo.Clusters-1))
	t.Note("filesystem analog: NTFS-style run cache, %d-op log flush, safe writes (ReplaceFile)", fs.DefaultConfig(c.VolumeBytes).LogFlushOps)
	t.Note("database analog: %s pages, %s extents, bulk-logged, dedicated log drive, %s write requests",
		units.FormatBytes(db.PageSize), units.FormatBytes(db.ExtentSize), units.FormatBytes(db.DefaultConfig().WriteRequestSize))
	t.Note("workload: get/put with safe-write updates; storage age = replaced bytes / live bytes (§4.4)")
	return []*stats.Table{t}, nil
}

// Figure1 measures read throughput for 256 KB, 512 KB and 1 MB objects on
// both systems after bulk load and after two and four overwrites of every
// object — the paper's break-even-migration result.
func Figure1(c Config) ([]*stats.Table, error) {
	sizes := []int64{256 * units.KB, 512 * units.KB, 1 * units.MB}
	titles := []string{
		"Figure 1a: Read Throughput After Bulk Load",
		"Figure 1b: Read Throughput After Two Overwrites",
		"Figure 1c: Read Throughput After Four Overwrites",
	}
	ages := []float64{0, 2, 4}
	tables := make([]*stats.Table, len(ages))
	series := make(map[string][]*stats.Series) // backend -> per-age series
	for i, title := range titles {
		tables[i] = stats.NewTable(title, "Object Size (KB)", "MB/sec")
	}
	for _, backend := range []string{"Database", "Filesystem"} {
		for i := range ages {
			series[backend] = append(series[backend], tables[i].AddSeries(backend))
		}
	}
	for _, size := range sizes {
		c.logf("fig1: object size %s", units.FormatBytes(size))
		for _, st := range systems {
			repo, err := c.build(vclock.New(), c.spec(st.backend))
			if err != nil {
				return nil, err
			}
			runner := workload.NewRunner(repo, workload.Constant{Size: size}, c.Seed)
			if _, err := runner.BulkLoad(c.Occupancy); err != nil {
				return nil, fmt.Errorf("fig1 %s: %w", st.name, err)
			}
			for i, age := range ages {
				if age > 0 {
					if _, err := runner.ChurnToAge(age, workload.ChurnOptions{}); err != nil {
						return nil, fmt.Errorf("fig1 %s churn: %w", st.name, err)
					}
				}
				res, err := runner.MeasureReadThroughput(c.ReadSamples)
				if err != nil {
					return nil, err
				}
				series[st.name][i].Add(float64(size/units.KB), res.MBps)
				c.logf("  %s %s age %.0f: %.2f MB/s", st.name, units.FormatBytes(size), age, res.MBps)
			}
		}
	}
	tables[2].Note("paper: after aging, NTFS outperforms SQL Server above 256KB; below, the database stays ahead")
	return tables, nil
}

// Figure2 traces fragments/object for 10 MB constant-size objects over
// storage ages 0..MaxAge on both systems.
func Figure2(c Config) ([]*stats.Table, error) {
	return fragmentationCurve(c, workload.Constant{Size: 10 * units.MB},
		"Figure 2: Long Term Fragmentation With 10 MB Objects")
}

// Figure3 is Figure2 for 256 KB objects: both systems converge to about
// one fragment per 64 KB write request.
func Figure3(c Config) ([]*stats.Table, error) {
	tables, err := fragmentationCurve(c, workload.Constant{Size: 256 * units.KB},
		"Figure 3: Long Term Fragmentation With 256K Objects")
	if err == nil {
		tables[0].Note("paper: both systems converge to ~4 fragments/object, one per 64KB write request")
	}
	return tables, err
}

// fragmentationCurve runs the aging workload on both backends and reports
// mean fragments/object per age.
func fragmentationCurve(c Config, dist workload.SizeDist, title string) ([]*stats.Table, error) {
	t := stats.NewTable(title, "Storage Age", "Fragments/object")
	for _, st := range systems {
		series, err := c.fragCurve(st.backend, dist, st.name)
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, series)
	}
	return []*stats.Table{t}, nil
}

// Figure4 measures 512 KB write throughput during bulk load and during
// the churn intervals from age 0 to 2 and 2 to 4.
func Figure4(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 4: 512K Write Throughput Over Time", "Storage Age", "MB/sec")
	for _, st := range systems {
		repo, err := c.build(vclock.New(), c.spec(st.backend))
		if err != nil {
			return nil, err
		}
		s := t.AddSeries(st.name)
		runner := workload.NewRunner(repo, workload.Constant{Size: 512 * units.KB}, c.Seed)
		res, err := runner.BulkLoad(c.Occupancy)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", st.name, err)
		}
		s.Add(0, res.MBps) // "During bulk load (zero)"
		c.logf("fig4 %s bulk: %.2f MB/s", st.name, res.MBps)
		for _, age := range []float64{2, 4} {
			res, err := runner.ChurnToAge(age, workload.ChurnOptions{})
			if err != nil {
				return nil, fmt.Errorf("fig4 %s churn: %w", st.name, err)
			}
			s.Add(age, res.MBps)
			c.logf("fig4 %s age %.0f: %.2f MB/s", st.name, age, res.MBps)
		}
	}
	t.Note("write throughput is measured during fragmentation: the age-2 value is the average over ages 0..2 (§5.3)")
	return []*stats.Table{t}, nil
}

// Figure5 compares constant-size and uniform-size 10 MB-mean objects on
// each system — the paper's surprising result that constant sizes
// fragment just as badly.
func Figure5(c Config) ([]*stats.Table, error) {
	mean := int64(10 * units.MB)
	dists := []workload.SizeDist{
		workload.Constant{Size: mean},
		workload.UniformAround(mean),
	}
	distName := []string{"Constant", "Uniform"}
	dbTable := stats.NewTable("Figure 5a: Database Fragmentation: Blob Distributions", "Storage Age", "Fragments/object")
	fsTable := stats.NewTable("Figure 5b: Filesystem Fragmentation: Blob Distributions", "Storage Age", "Fragments/object")
	for i, dist := range dists {
		c.logf("fig5: %s distribution, database", distName[i])
		dbSeries, err := c.fragCurve(stack.DB, dist, distName[i])
		if err != nil {
			return nil, err
		}
		dbTable.Series = append(dbTable.Series, dbSeries)
		c.logf("fig5: %s distribution, filesystem", distName[i])
		fsSeries, err := c.fragCurve(stack.File, dist, distName[i])
		if err != nil {
			return nil, err
		}
		fsTable.Series = append(fsTable.Series, fsSeries)
	}
	dbTable.Note("paper: constant-size objects show no better fragmentation behaviour than uniform sizes with the same mean")
	return []*stats.Table{dbTable, fsTable}, nil
}

// Figure6 sweeps volume size and occupancy: a small volume and a 10x
// volume at 50% full on both systems, plus the filesystem at 90% and
// 97.5% occupancy on both volumes.
func Figure6(c Config) ([]*stats.Table, error) {
	smallV := c.VolumeBytes
	bigV := c.VolumeBytes * 10
	dist := workload.Constant{Size: 10 * units.MB}
	volName := func(v int64) string { return units.FormatBytes(v) }

	dbTable := stats.NewTable("Figure 6a: Database Fragmentation: Different Volumes", "Storage Age", "Fragments/object")
	fsTable := stats.NewTable("Figure 6b: Filesystem Fragmentation: Different Volumes (50% full)", "Storage Age", "Fragments/object")
	fsFullTable := stats.NewTable("Figure 6c: Filesystem Fragmentation: Different Volumes (90%, 97.5% full)", "Storage Age", "Fragments/object")

	for _, v := range []int64{smallV, bigV} {
		sub := c
		sub.VolumeBytes = v
		if v >= 8*units.GB {
			sub.NoOwnerMap = true
		}
		// Database, 50% full; the paper measures the database arm to
		// half the age depth (its Figure 6a x-axis stops at 5).
		dbCfg := sub
		dbCfg.MaxAge = c.MaxAge / 2
		c.logf("fig6: database %s 50%% full", volName(v))
		dbSeries, err := dbCfg.fragCurve(stack.DB, dist, "50% full - "+volName(v))
		if err != nil {
			return nil, err
		}
		dbTable.Series = append(dbTable.Series, dbSeries)

		// Filesystem, 50% full.
		c.logf("fig6: filesystem %s 50%% full", volName(v))
		fsSeries, err := sub.fragCurve(stack.File, dist, "50% full - "+volName(v))
		if err != nil {
			return nil, err
		}
		fsTable.Series = append(fsTable.Series, fsSeries)

		// Filesystem at high occupancy.
		for _, occ := range []float64{0.90, 0.975} {
			occCfg := sub
			occCfg.Occupancy = occ
			c.logf("fig6: filesystem %s %.1f%% full", volName(v), occ*100)
			name := fmt.Sprintf("%.1f%% full - %s", occ*100, volName(v))
			s, err := occCfg.fragCurve(stack.File, dist, name)
			if err != nil {
				return nil, err
			}
			fsFullTable.Series = append(fsFullTable.Series, s)
		}
	}
	fsTable.Note("paper: at 50%% full the larger volume converges lower (4-5 vs 11-12 fragments/object on 400G vs 40G)")
	fsFullTable.Note("paper: other than the 50%% full run, volume size has little impact on fragmentation")
	return []*stats.Table{dbTable, fsTable, fsFullTable}, nil
}

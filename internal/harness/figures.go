package harness

import (
	"fmt"

	"repro/internal/blob"
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
	d := disk.New(disk.DefaultGeometry(c.VolumeBytes), vclock.New(), disk.MetadataMode)
	geo := d.Geometry()
	t.Note("%s", d.String())
	t.Note("paper hardware: Tyan S2882, 1.8GHz Opteron 244, 2GB ECC, 4x Seagate 400GB ST3400832AS 7200rpm SATA")
	t.Note("cluster size %s, outer-band streaming %.0f MB/s, inner %.0f MB/s",
		units.FormatBytes(geo.ClusterSize), d.SequentialBandwidthMBps(0), d.SequentialBandwidthMBps(geo.Clusters-1))
	t.Note("filesystem analog: NTFS-style run cache, %d-op log flush, safe writes (ReplaceFile)", fs.LogFlushOps)
	t.Note("database analog: %s pages, %s extents, bulk-logged, dedicated log drive, %s write requests",
		units.FormatBytes(db.PageSize), units.FormatBytes(db.ExtentSize), units.FormatBytes(blob.DefaultWriteRequestSize))
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
	tables := make([]*stats.Table, len(ages)) // one per age, a series per system
	for i, title := range titles {
		tables[i] = stats.NewTable(title, "Object Size (KB)", "MB/sec")
		for _, st := range systems {
			tables[i].AddSeries(st.name)
		}
	}
	for _, size := range sizes {
		c.logf("fig1: object size %s", units.FormatBytes(size))
		for j, st := range systems {
			i := 0
			err := c.age(vclock.New(), c.spec(st.backend), workload.Constant{Size: size}, ages, drive{}, func(a arm) error {
				res, err := a.runner.MeasureRead(c.ReadSamples, workload.ReadOptions{})
				if err != nil {
					return err
				}
				tables[i].Series[j].Add(float64(size/units.KB), res.MBps)
				i++
				c.logf("  %s %s age %.0f: %.2f MB/s", st.name, units.FormatBytes(size), a.age, res.MBps)
				return nil
			})
			if err != nil {
				return nil, err
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
		if err := c.fragCurve(t, st.backend, dist, st.name, nil); err != nil {
			return nil, err
		}
	}
	return []*stats.Table{t}, nil
}

// Figure4 measures 512 KB write throughput during bulk load and during
// the churn intervals from age 0 to 2 and 2 to 4.
func Figure4(c Config) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 4: 512K Write Throughput Over Time", "Storage Age", "MB/sec")
	for _, st := range systems {
		s := t.AddSeries(st.name)
		// At age 0 the step sees the bulk load's throughput ("During bulk
		// load (zero)"), at 2 and 4 the churn's since the last point.
		err := c.age(vclock.New(), c.spec(st.backend), workload.Constant{Size: 512 * units.KB}, []float64{0, 2, 4}, drive{},
			func(a arm) error {
				s.Add(a.age, a.res.MBps)
				c.logf("fig4 %s age %.0f: %.2f MB/s", st.name, a.age, a.res.MBps)
				return nil
			})
		if err != nil {
			return nil, err
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
		if err := c.fragCurve(dbTable, stack.DB, dist, distName[i], nil); err != nil {
			return nil, err
		}
		c.logf("fig5: %s distribution, filesystem", distName[i])
		if err := c.fragCurve(fsTable, stack.File, dist, distName[i], nil); err != nil {
			return nil, err
		}
	}
	dbTable.Note("paper: constant-size objects show no better fragmentation behaviour than uniform sizes with the same mean")
	return []*stats.Table{dbTable, fsTable}, nil
}

// Figure6 sweeps volume size and occupancy: a small volume and a 10x
// volume at 50% full on both systems, plus the filesystem at 90% and
// 97.5% occupancy on both volumes.
func Figure6(c Config) ([]*stats.Table, error) {
	dist := workload.Constant{Size: 10 * units.MB}
	volName := units.FormatBytes

	dbTable := stats.NewTable("Figure 6a: Database Fragmentation: Different Volumes", "Storage Age", "Fragments/object")
	fsTable := stats.NewTable("Figure 6b: Filesystem Fragmentation: Different Volumes (50% full)", "Storage Age", "Fragments/object")
	fsFullTable := stats.NewTable("Figure 6c: Filesystem Fragmentation: Different Volumes (90%, 97.5% full)", "Storage Age", "Fragments/object")

	for _, v := range []int64{c.VolumeBytes, 10 * c.VolumeBytes} {
		sub := c
		sub.VolumeBytes = v
		// Database, 50% full; the paper measures the database arm to
		// half the age depth (its Figure 6a x-axis stops at 5).
		dbCfg := sub
		dbCfg.MaxAge = c.MaxAge / 2
		c.logf("fig6: database %s 50%% full", volName(v))
		if err := dbCfg.fragCurve(dbTable, stack.DB, dist, "50% full - "+volName(v), nil); err != nil {
			return nil, err
		}

		// Filesystem, 50% full.
		c.logf("fig6: filesystem %s 50%% full", volName(v))
		if err := sub.fragCurve(fsTable, stack.File, dist, "50% full - "+volName(v), nil); err != nil {
			return nil, err
		}

		// Filesystem at high occupancy.
		for _, occ := range []float64{0.90, 0.975} {
			occCfg := sub
			occCfg.Occupancy = occ
			c.logf("fig6: filesystem %s %.1f%% full", volName(v), occ*100)
			name := fmt.Sprintf("%.1f%% full - %s", occ*100, volName(v))
			if err := occCfg.fragCurve(fsFullTable, stack.File, dist, name, nil); err != nil {
				return nil, err
			}
		}
	}
	fsTable.Note("paper: at 50%% full the larger volume converges lower (4-5 vs 11-12 fragments/object on 400G vs 40G)")
	fsFullTable.Note("paper: other than the 50%% full run, volume size has little impact on fragmentation")
	return []*stats.Table{dbTable, fsTable, fsFullTable}, nil
}

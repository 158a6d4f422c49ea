package disk

import (
	"bytes"
	"testing"

	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

func testDrive(capacity int64, mode Mode, opts ...Option) *Drive {
	return New(DefaultGeometry(capacity), vclock.New(), mode, opts...)
}

func TestSequentialNoSeek(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode)
	d.WriteRun(extent.Run{Start: 0, Len: 16}, 1, 0, nil)
	d.WriteRun(extent.Run{Start: 16, Len: 16}, 1, 16, nil)
	if s := d.Stats(); s.Seeks != 0 {
		t.Fatalf("sequential writes incurred %d seeks", s.Seeks)
	}
	d.WriteRun(extent.Run{Start: 1000, Len: 16}, 1, 32, nil)
	if s := d.Stats(); s.Seeks != 1 {
		t.Fatalf("discontiguous write incurred %d seeks, want 1", s.Seeks)
	}
}

func TestSeekCostMonotonic(t *testing.T) {
	d := testDrive(10*units.GB, MetadataMode)
	short := d.seekTime(10)
	mid := d.seekTime(d.geo.Clusters / 4)
	long := d.seekTime(d.geo.Clusters - 1)
	if !(short < mid && mid < long) {
		t.Fatalf("seek curve not monotonic: %d %d %d", short, mid, long)
	}
	if d.seekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if d.seekTime(-100) != d.seekTime(100) {
		t.Fatal("seek time not symmetric")
	}
}

func TestZonedBandwidth(t *testing.T) {
	d := testDrive(10*units.GB, MetadataMode)
	outer := d.SequentialBandwidthMBps(0)
	inner := d.SequentialBandwidthMBps(d.geo.Clusters - 1)
	if outer <= inner {
		t.Fatalf("outer zone (%g) not faster than inner (%g)", outer, inner)
	}
	if outer > d.geo.OuterMBps+0.01 || inner < d.geo.InnerMBps-0.01 {
		t.Fatalf("bandwidth outside configured range: %g..%g", inner, outer)
	}
}

func TestFragmentationSlowsReads(t *testing.T) {
	// Reading N clusters as one run must be far faster than as N scattered
	// fragments — the core mechanism behind every figure in the paper.
	geo := DefaultGeometry(10 * units.GB)
	contig := New(geo, vclock.New(), MetadataMode)
	w := vclock.StartWatch(contig.Clock())
	contig.ReadRun(extent.Run{Start: 0, Len: 2560}) // 10MB contiguous
	contigTime := w.Seconds()

	frag := New(geo, vclock.New(), MetadataMode)
	w = vclock.StartWatch(frag.Clock())
	for i := 0; i < 40; i++ { // 40 fragments of 256KB, scattered
		start := int64(i) * (geo.Clusters / 41)
		frag.ReadRun(extent.Run{Start: start, Len: 64})
	}
	fragTime := w.Seconds()

	if fragTime < 3*contigTime {
		t.Fatalf("40-fragment read only %.2fx slower than contiguous (%.4fs vs %.4fs)",
			fragTime/contigTime, fragTime, contigTime)
	}
}

func TestThroughputPlausible(t *testing.T) {
	// Contiguous outer-band streaming should be near the configured outer
	// bandwidth; the paper's drive streams tens of MB/s.
	d := testDrive(40*units.GB, MetadataMode)
	w := vclock.StartWatch(d.Clock())
	var total int64
	for c := int64(0); c < 256*256; c += 256 { // 256MB sequential
		d.ReadRun(extent.Run{Start: c, Len: 256})
		total += 256 * d.Geometry().ClusterSize
	}
	mbps := units.MBps(total, w.Seconds())
	if mbps < 40 || mbps > 70 {
		t.Fatalf("sequential throughput %.1f MB/s outside plausible range", mbps)
	}
}

func TestDataModeRoundTrip(t *testing.T) {
	d := testDrive(1*units.GB, DataMode)
	cs := d.Geometry().ClusterSize
	payload := make([]byte, 3*cs)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	d.WriteRun(extent.Run{Start: 10, Len: 3}, 7, 0, payload)
	got := d.ReadRun(extent.Run{Start: 10, Len: 3})
	if !bytes.Equal(got, payload) {
		t.Fatal("DataMode read-back mismatch")
	}
	// Unwritten clusters read as zeros.
	zero := d.ReadRun(extent.Run{Start: 100, Len: 1})
	for _, b := range zero {
		if b != 0 {
			t.Fatal("unwritten cluster not zero")
		}
	}
}

func TestOwnerMap(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode, WithOwnerMap())
	if !d.HasOwnerMap() {
		t.Fatal("WithOwnerMap drive reports no owner map")
	}
	d.WriteRun(extent.Run{Start: 5, Len: 4}, 42, 100, nil)
	tag, seq := d.Owner(6)
	if tag != 42 || seq != 101 {
		t.Fatalf("Owner(6) = %d,%d; want 42,101", tag, seq)
	}
	d.ClearOwner(extent.Run{Start: 5, Len: 4})
	if tag, _ := d.Owner(6); tag != 0 {
		t.Fatalf("owner not cleared: %d", tag)
	}
	if testDrive(1*units.GB, MetadataMode).HasOwnerMap() {
		t.Fatal("owner map reported without WithOwnerMap")
	}
}

// TestClearOwnerClearsExactlyTheRun: tag and sequence go to zero on every
// cluster of the run and on no neighbour, and deallocation charges no
// time and counts as no request.
func TestClearOwnerClearsExactlyTheRun(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode, WithOwnerMap())
	d.WriteRun(extent.Run{Start: 4, Len: 8}, 7, 50, nil)
	now, stats := d.Clock().Now(), d.Stats()
	d.ClearOwner(extent.Run{Start: 6, Len: 3})
	for c := int64(4); c < 12; c++ {
		tag, seq := d.Owner(c)
		if cleared := c >= 6 && c < 9; cleared && (tag != 0 || seq != 0) {
			t.Fatalf("Owner(%d) = %d,%d after ClearOwner of [6,9)", c, tag, seq)
		} else if !cleared && (tag != 7 || seq != uint32(50+c-4)) {
			t.Fatalf("Owner(%d) = %d,%d: ClearOwner of [6,9) reached a neighbour", c, tag, seq)
		}
	}
	if d.Clock().Now() != now || d.Stats() != stats {
		t.Fatal("ClearOwner charged time or counted a request")
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode)
	d.WriteRun(extent.Run{Start: 0, Len: 8}, 1, 0, nil)
	d.ReadRun(extent.Run{Start: 100, Len: 8})
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("ops: %+v", s)
	}
	if s.BytesWritten != 8*d.Geometry().ClusterSize || s.BytesRead != 8*d.Geometry().ClusterSize {
		t.Fatalf("bytes: %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range run did not panic")
		}
	}()
	d.ReadRun(extent.Run{Start: d.Geometry().Clusters - 1, Len: 2})
}

func TestChargeCPUAdvancesClock(t *testing.T) {
	d := testDrive(1*units.GB, MetadataMode)
	before := d.Clock().Now()
	d.ChargeCPU(1000) // 1ms
	if got := d.Clock().Now() - before; got != 1_000_000 {
		t.Fatalf("ChargeCPU advanced %d ns, want 1e6", got)
	}
}

package disk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

// Property: virtual time equals the sum of seek, transfer and per-request
// CPU components for any request sequence.
func TestQuickTimeDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := vclock.New()
		d := New(DefaultGeometry(1*units.GB), clock, MetadataMode)
		requests := rng.Intn(50) + 1
		for i := 0; i < requests; i++ {
			start := rng.Int63n(d.Geometry().Clusters - 64)
			length := rng.Int63n(63) + 1
			if rng.Intn(2) == 0 {
				d.ReadRun(extent.Run{Start: start, Len: length})
			} else {
				d.WriteRun(extent.Run{Start: start, Len: length}, 1, 0, nil)
			}
		}
		s := d.Stats()
		cpu := int64(float64(requests) * d.Geometry().PerRequestCPUUs * 1e3)
		return clock.Now() == s.SeekNanos+s.TransferNanos+cpu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekLongerThanTransferForSmallRandomIO(t *testing.T) {
	// The regime behind every fragmentation penalty: for 4KB random I/O
	// the seek dominates the transfer.
	d := New(DefaultGeometry(10*units.GB), vclock.New(), MetadataMode)
	d.ReadRun(extent.Run{Start: d.Geometry().Clusters / 2, Len: 1})
	s := d.Stats()
	if s.SeekNanos <= s.TransferNanos {
		t.Fatalf("seek %dns not dominant over transfer %dns", s.SeekNanos, s.TransferNanos)
	}
}

func TestNoOwnerMapByDefault(t *testing.T) {
	d := New(DefaultGeometry(1*units.GB), vclock.New(), MetadataMode)
	if d.HasOwnerMap() {
		t.Fatal("owner map allocated without WithOwnerMap")
	}
	// Writes and clears must still work (and not panic).
	d.WriteRun(extent.Run{Start: 0, Len: 4}, 9, 0, nil)
	if tag, _ := d.Owner(0); tag != 0 {
		t.Fatalf("Owner without a map returned %d", tag)
	}
	d.ClearOwner(extent.Run{Start: 0, Len: 4})
}

func TestHeadPositionCarriesAcrossRequests(t *testing.T) {
	d := New(DefaultGeometry(1*units.GB), vclock.New(), MetadataMode)
	d.ReadRun(extent.Run{Start: 100, Len: 10})
	// Head is now at 110: reading there is seek-free.
	before := d.Stats().Seeks
	d.ReadRun(extent.Run{Start: 110, Len: 10})
	if d.Stats().Seeks != before {
		t.Fatal("sequential follow-on read incurred a seek")
	}
	// Reading backwards seeks.
	d.ReadRun(extent.Run{Start: 100, Len: 5})
	if d.Stats().Seeks != before+1 {
		t.Fatal("backward read did not seek")
	}
}

func TestDataModeOverwrite(t *testing.T) {
	d := New(DefaultGeometry(64*units.MB), vclock.New(), DataMode)
	cs := d.Geometry().ClusterSize
	first := make([]byte, cs)
	for i := range first {
		first[i] = 1
	}
	second := make([]byte, cs)
	for i := range second {
		second[i] = 2
	}
	d.WriteRun(extent.Run{Start: 5, Len: 1}, 1, 0, first)
	d.WriteRun(extent.Run{Start: 5, Len: 1}, 2, 0, second)
	got := d.ReadRun(extent.Run{Start: 5, Len: 1})
	if got[0] != 2 {
		t.Fatal("overwrite not visible")
	}
	// nil data clears retained payload.
	d.WriteRun(extent.Run{Start: 5, Len: 1}, 3, 0, nil)
	got = d.ReadRun(extent.Run{Start: 5, Len: 1})
	if got[0] != 0 {
		t.Fatal("nil write did not clear payload")
	}
}

func TestGeometryStringer(t *testing.T) {
	d := New(DefaultGeometry(40*units.GB), vclock.New(), MetadataMode)
	if s := d.String(); s == "" {
		t.Fatal("empty String")
	}
}

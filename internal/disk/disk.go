// Package disk models a single rotating drive with zoned transfer rates,
// a seek-distance cost curve, and rotational latency, driven by a virtual
// clock.
//
// The model reproduces the two hardware properties the paper's results
// hinge on (§3.4, §5):
//
//   - every discontiguous fragment of an object costs a seek plus half a
//     rotation before data moves, so fragments/object translates directly
//     into lost throughput; and
//   - outer zones transfer faster than inner zones, which is why NTFS's
//     banded allocation starts at the outer band.
//
// Defaults approximate the paper's test drive (Table 1: Seagate 400 GB
// 7200 rpm SATA, ST3400832AS).
//
// The drive can optionally retain payload bytes (DataMode) for integrity
// tests. Under WithOwnerMap it also keeps an owner map tagging each
// cluster with the object that wrote it: 8 bytes per cluster that only
// the marker-based fragmentation scanner in package frag reads, so a
// drive keeps it only when a caller asks.
package disk

import (
	"fmt"
	"math"

	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

// Mode selects how much state the drive retains besides timing.
type Mode int

const (
	// MetadataMode tracks timing (and the owner map, under WithOwnerMap)
	// but drops payloads.
	MetadataMode Mode = iota
	// DataMode additionally retains payload bytes per cluster so reads
	// return exactly what was written. Use only with small volumes.
	DataMode
)

// Geometry describes the simulated drive.
type Geometry struct {
	ClusterSize int64 // bytes per cluster
	Clusters    int64 // total clusters on the volume

	// Transfer bandwidth in MB/s at the outermost and innermost zone;
	// intermediate clusters interpolate linearly, approximating the
	// 10-20 zone banding of real drives.
	OuterMBps float64
	InnerMBps float64

	// Seek curve: single-track seek and full-stroke seek, milliseconds.
	TrackToTrackMs float64
	FullStrokeMs   float64

	RPM int // spindle speed, for rotational latency

	// PerRequestCPUUs is the fixed host-side cost charged per request
	// (interrupt handling, driver path), microseconds.
	PerRequestCPUUs float64
}

// DefaultGeometry returns a drive approximating the paper's Table 1
// hardware with the given capacity in bytes.
func DefaultGeometry(capacity int64) Geometry {
	return Geometry{
		ClusterSize:     4 * units.KB,
		Clusters:        capacity / (4 * units.KB),
		OuterMBps:       64,
		InnerMBps:       34,
		TrackToTrackMs:  0.8,
		FullStrokeMs:    17,
		RPM:             7200,
		PerRequestCPUUs: 20,
	}
}

// Stats accumulates operation counters for one drive.
type Stats struct {
	Reads         int64
	Writes        int64
	Seeks         int64
	BytesRead     int64
	BytesWritten  int64
	SeekNanos     int64
	TransferNanos int64
}

// Drive is the simulated disk. It is not safe for concurrent use; the
// storage engines above it are single-threaded per volume, as the paper's
// workload was.
type Drive struct {
	geo   Geometry
	clock *vclock.Clock
	mode  Mode
	stats Stats

	headPos int64 // cluster under the head after the last request

	// owner[i] and seq[i] tag cluster i with the object that last wrote
	// it and that cluster's index within the object's byte stream. Tag 0
	// means unowned/metadata. Both are nil unless WithOwnerMap was given.
	owner []uint32
	seq   []uint32

	data map[int64][]byte // cluster -> payload, DataMode only
}

// Option customises drive construction.
type Option func(*Drive)

// WithOwnerMap allocates the owner map (8 bytes per cluster) that
// frag.ScanMarkers reads. Only the marker scan needs it; without it
// WriteRun and ClearOwner touch no per-cluster state.
func WithOwnerMap() Option {
	return func(d *Drive) {
		d.owner = make([]uint32, d.geo.Clusters)
		d.seq = make([]uint32, d.geo.Clusters)
	}
}

// New creates a drive with the given geometry. The owner map is
// allocated only under WithOwnerMap.
func New(geo Geometry, clock *vclock.Clock, mode Mode, opts ...Option) *Drive {
	if geo.Clusters <= 0 || geo.ClusterSize <= 0 {
		panic(fmt.Sprintf("disk: bad geometry %+v", geo))
	}
	d := &Drive{
		geo:   geo,
		clock: clock,
		mode:  mode,
	}
	for _, o := range opts {
		o(d)
	}
	if mode == DataMode {
		d.data = make(map[int64][]byte)
	}
	return d
}

// Geometry returns the drive geometry.
func (d *Drive) Geometry() Geometry { return d.geo }

// Mode returns the drive's retention mode.
func (d *Drive) Mode() Mode { return d.mode }

// Clock returns the virtual clock the drive advances.
func (d *Drive) Clock() *vclock.Clock { return d.clock }

// Stats returns a copy of the accumulated counters.
func (d *Drive) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (the clock is untouched).
func (d *Drive) ResetStats() { d.stats = Stats{} }

// Capacity returns the drive capacity in bytes.
func (d *Drive) Capacity() int64 { return d.geo.Clusters * d.geo.ClusterSize }

// seekTime returns nanoseconds to move the head dist clusters, using the
// standard concave square-root seek curve, plus average rotational latency.
func (d *Drive) seekTime(dist int64) int64 {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := math.Sqrt(float64(dist) / float64(d.geo.Clusters))
	ms := d.geo.TrackToTrackMs + (d.geo.FullStrokeMs-d.geo.TrackToTrackMs)*frac
	rotMs := 0.5 * 60000.0 / float64(d.geo.RPM)
	return int64((ms + rotMs) * 1e6)
}

// bandwidthAt returns bytes/ns at cluster c (linear zone interpolation).
func (d *Drive) bandwidthAt(c int64) float64 {
	frac := float64(c) / float64(d.geo.Clusters)
	mbps := d.geo.OuterMBps + (d.geo.InnerMBps-d.geo.OuterMBps)*frac
	return mbps * float64(units.MB) / 1e9
}

// transferTime returns nanoseconds to move r.Len clusters at the zone
// bandwidth of the run's midpoint.
func (d *Drive) transferTime(r extent.Run) int64 {
	bytes := float64(r.Len * d.geo.ClusterSize)
	bw := d.bandwidthAt(r.Start + r.Len/2)
	return int64(bytes / bw)
}

// charge advances the clock for a request at r, seeking if the head is not
// already positioned at r.Start. Seek, transfer, and per-request CPU are
// summed into ONE clock advance — the per-request total is unchanged, but
// with hundreds of streams each advance is a contended atomic add on the
// shared clock word, so one RMW per request instead of three matters.
func (d *Drive) charge(r extent.Run) {
	total := int64(d.geo.PerRequestCPUUs * 1e3)
	if r.Start != d.headPos {
		st := d.seekTime(r.Start - d.headPos)
		total += st
		d.stats.Seeks++
		d.stats.SeekNanos += st
	}
	tt := d.transferTime(r)
	total += tt
	d.stats.TransferNanos += tt
	d.clock.Advance(total)
	d.headPos = r.End()
}

func (d *Drive) checkRun(r extent.Run) {
	if r.Len <= 0 || r.Start < 0 || r.End() > d.geo.Clusters {
		panic(fmt.Sprintf("disk: run %v outside volume of %d clusters", r, d.geo.Clusters))
	}
}

// WriteRun writes the run, tagging it as owned by object tag with the
// object-relative cluster sequence beginning at seqStart. data, when
// non-nil in DataMode, must be exactly r.Len clusters long.
func (d *Drive) WriteRun(r extent.Run, tag uint32, seqStart int64, data []byte) {
	d.checkRun(r)
	d.charge(r)
	d.stats.Writes++
	d.stats.BytesWritten += r.Len * d.geo.ClusterSize
	if d.owner != nil {
		for i := int64(0); i < r.Len; i++ {
			d.owner[r.Start+i] = tag
			d.seq[r.Start+i] = uint32(seqStart + i)
		}
	}
	if d.mode == DataMode {
		if data != nil {
			if int64(len(data)) != r.Len*d.geo.ClusterSize {
				panic(fmt.Sprintf("disk: data length %d != run %v bytes", len(data), r))
			}
			for i := int64(0); i < r.Len; i++ {
				buf := make([]byte, d.geo.ClusterSize)
				copy(buf, data[i*d.geo.ClusterSize:(i+1)*d.geo.ClusterSize])
				d.data[r.Start+i] = buf
			}
		} else if len(d.data) > 0 {
			// Only a drive that holds payload has stale clusters to drop;
			// the engines keep payload above the drive and always pass nil.
			for i := int64(0); i < r.Len; i++ {
				delete(d.data, r.Start+i)
			}
		}
	}
}

// ChargeRead accounts for a read of the run — the same clock advance and
// the same Stats as ReadRun — without assembling the payload. The
// engines keep object bytes above the drive and only ever need the
// cost, which in DataMode would otherwise buy a zeroed run-sized buffer
// and a map lookup per cluster just to be dropped.
func (d *Drive) ChargeRead(r extent.Run) {
	d.checkRun(r)
	d.charge(r)
	d.stats.Reads++
	d.stats.BytesRead += r.Len * d.geo.ClusterSize
}

// ReadRun reads the run, charging seek and transfer time. In DataMode it
// returns the stored payload (zeros for never-written clusters); in
// MetadataMode it returns nil.
func (d *Drive) ReadRun(r extent.Run) []byte {
	d.ChargeRead(r)
	if d.mode != DataMode {
		return nil
	}
	out := make([]byte, r.Len*d.geo.ClusterSize)
	for i := int64(0); i < r.Len; i++ {
		if b, ok := d.data[r.Start+i]; ok {
			copy(out[i*d.geo.ClusterSize:], b)
		}
	}
	return out
}

// ClearOwner untags a run (after deletion); without an owner map it only
// checks the run. No time is charged: deallocation is a metadata
// operation whose cost the filesystem/database layer models.
func (d *Drive) ClearOwner(r extent.Run) {
	d.checkRun(r)
	if d.owner == nil {
		return
	}
	clear(d.owner[r.Start:r.End()])
	clear(d.seq[r.Start:r.End()])
}

// Owner returns the tag and sequence recorded for cluster c; 0, 0
// without an owner map.
func (d *Drive) Owner(c int64) (tag uint32, seq uint32) {
	if d.owner == nil || c < 0 || c >= d.geo.Clusters {
		return 0, 0
	}
	return d.owner[c], d.seq[c]
}

// HasOwnerMap reports whether the owner map is available for scanning.
func (d *Drive) HasOwnerMap() bool { return d.owner != nil }

// ChargeCPU advances the clock by the given microseconds of host CPU work.
// Storage engines use this for per-operation costs (file open, B-tree
// descent, page processing) that the paper's folklore discussion names.
func (d *Drive) ChargeCPU(us float64) {
	d.clock.Advance(int64(us * 1e3))
}

// SequentialBandwidthMBps reports the model's streaming bandwidth at the
// given cluster, for harness reporting (Table 1 analog).
func (d *Drive) SequentialBandwidthMBps(c int64) float64 {
	return d.bandwidthAt(c) * 1e9 / float64(units.MB)
}

// String summarises the drive for the Table 1 configuration report.
func (d *Drive) String() string {
	return fmt.Sprintf("simulated %s drive: %d x %s clusters, %g-%g MB/s zones, %g ms avg seek, %d rpm",
		units.FormatBytes(d.Capacity()), d.geo.Clusters, units.FormatBytes(d.geo.ClusterSize),
		d.geo.OuterMBps, d.geo.InnerMBps, (d.geo.TrackToTrackMs+d.geo.FullStrokeMs)/2, d.geo.RPM)
}

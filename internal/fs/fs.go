// Package fs implements the filesystem substrate of the comparison — an
// NTFS analog with the specific behaviours the paper identifies as driving
// its fragmentation results:
//
//   - extent-based files whose space comes from a run cache ordered by
//     decreasing size and offset (§2);
//   - space allocated per append request, before the final file size is
//     known — the root cause of the paper's surprising constant-size
//     fragmentation result (§5.4);
//   - aggressive contiguous extension when sequential appends are
//     detected (§5.4);
//   - freed space quarantined until the transactional log commits (§2);
//   - the steps of a safe write — a temp file forced on Close, then an
//     atomic Rename over the old version (§4) — which core.FileStore
//     runs, and Recover's sweep of the temps a crash leaves;
//   - an MFT-style metadata zone, so opens and creates move the head;
//   - optional delayed allocation and size hints — the interface changes
//     the paper proposes (§5.4, §6) — plus an online defragmenter like
//     the Windows utility (§3.4).
//
// The paper measured NTFS with its defaults (§4.1, Table 1), so a volume
// has one setting, DelayedAllocation, which §3.4 and §6 vary. The rest
// are constants: the log commits every LogFlushOps (16) metadata
// operations; the MFT zone takes 1% of the volume and file data has no
// outer band; an open charges 12 ms of host CPU, a create 3 ms, a
// delete or rename 1 ms.
//
// All byte-level bookkeeping is deterministic and driven by the shared
// virtual clock through the disk model.
package fs

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
)

// Errors returned by volume operations. Each is the corresponding blob
// sentinel, so errors.Is(err, blob.ErrNotFound) and friends hold through
// the filesystem layer without translation.
var (
	ErrExist    = blob.ErrAlreadyExists
	ErrNotExist = blob.ErrNotFound
	ErrNoSpace  = blob.ErrNoSpaceLeft
	ErrClosed   = blob.ErrClosed
)

// LogFlushOps is the number of metadata operations (deletes, renames)
// between transactional log commits. Freed space becomes reusable only
// at a commit.
const LogFlushOps = 16

// The volume's fixed geometry and per-operation host CPU charges. NTFS
// "uses a 'banded' allocation strategy for metadata, but not for file
// contents" (§2), so file data gets no outer band; the MFT zone takes
// metadataFrac of the volume instead. The CPU charges, in microseconds,
// model the folklore costs in §3.1: "file opens are CPU expensive".
const (
	metadataFrac = 0.01
	openCPUUs    = 12000 // SMB/UNC-path open cost, per §4.1's networked structure
	createCPUUs  = 3000
	deleteCPUUs  = 1000
	renameCPUUs  = 1000
)

// Config describes a volume. The zero value is NTFS with its defaults,
// the configuration the paper measured (§4.1).
type Config struct {
	// DelayedAllocation buffers appended bytes in memory and allocates
	// space only when the file is closed, with the final size known —
	// the XFS/realloc behaviour from §3.4.
	DelayedAllocation bool
}

// Volume is a mounted filesystem on a simulated drive. Not safe for
// concurrent use.
type Volume struct {
	cfg   Config
	drive *disk.Drive
	rc    *alloc.RunCache

	files   map[string]*File
	nextTag uint32

	metaStart int64 // first cluster of the MFT zone
	metaLen   int64 // clusters in the MFT zone

	opsSinceFlush int
	statCreates   int64
	statDeletes   int64
	statOpens     int64
	statFlushes   int64
	statMetaWrite int64

	// Batch (group-commit) state: while batchDepth > 0, MFT record
	// writes are deferred and deduplicated — EndBatch writes each
	// touched metadata cluster once, coalesced into runs — and the
	// periodic log flush is evaluated once at batch end instead of
	// mid-commit. This is the filesystem half of the store's group
	// commit: N safe-write commits share one metadata force.
	batchDepth     int
	pendingMeta    []int64 // MFT clusters awaiting their batched write
	pendingMetaSet map[int64]struct{}

	// filePool recycles File structs freed by Delete (see Create).
	filePool []*File

	// indexBufs holds directory index-allocation buffers. NTFS stores
	// large directory B-trees in INDEX_ALLOCATION buffers taken from the
	// volume's general free space; entries come and go as files are
	// created and deleted. The effect on the data pool — a steady
	// trickle of small allocations and frees that shave free runs off
	// object-size alignment — is one reason constant-size objects still
	// fragment (§5.4).
	indexBufs []extent.Run
}

// Format creates a fresh volume on the drive.
func Format(drive *disk.Drive, cfg Config) *Volume {
	clusters := drive.Geometry().Clusters
	v := &Volume{
		cfg:     cfg,
		drive:   drive,
		rc:      alloc.NewRunCache(clusters, 0),
		files:   make(map[string]*File),
		nextTag: 1,
	}
	// Reserve the MFT zone. On an empty volume this carves the lowest
	// clusters, matching NTFS placing the MFT ahead of early file data.
	v.metaLen = int64(float64(clusters) * metadataFrac)
	if v.metaLen < 1 {
		v.metaLen = 1
	}
	runs, err := v.rc.Alloc(v.metaLen)
	if err != nil || len(runs) != 1 || runs[0].Start != 0 {
		panic(fmt.Sprintf("fs: metadata zone reservation failed: %v %v", runs, err))
	}
	v.metaStart = runs[0].Start
	return v
}

// Drive returns the underlying drive.
func (v *Volume) Drive() *disk.Drive { return v.drive }

// ClusterSize returns the volume's cluster size in bytes.
func (v *Volume) ClusterSize() int64 { return v.drive.Geometry().ClusterSize }

// FreeBytes reports immediately allocatable space.
func (v *Volume) FreeBytes() int64 { return v.rc.FreeClusters() * v.ClusterSize() }

// CapacityBytes reports the data capacity (volume minus metadata zone).
func (v *Volume) CapacityBytes() int64 {
	return (v.drive.Geometry().Clusters - v.metaLen) * v.ClusterSize()
}

// mftCluster deterministically places a file record inside the MFT zone.
func (v *Volume) mftCluster(tag uint32) int64 {
	return v.metaStart + int64(tag)%v.metaLen
}

// metadataWrite charges an MFT record update for the file tag. Inside a
// batch the write is deferred (and deduplicated per cluster) until
// EndBatch — the lazy-writer behaviour group commit leans on.
func (v *Volume) metadataWrite(tag uint32) {
	c := v.mftCluster(tag)
	if v.batchDepth > 0 {
		if _, dup := v.pendingMetaSet[c]; !dup {
			v.pendingMetaSet[c] = struct{}{}
			v.pendingMeta = append(v.pendingMeta, c)
		}
		return
	}
	v.statMetaWrite++
	v.drive.WriteRun(extent.Run{Start: c, Len: 1}, 0, 0, nil)
}

// metadataRead charges an MFT record lookup for the file tag.
func (v *Volume) metadataRead(tag uint32) {
	v.drive.ChargeRead(extent.Run{Start: v.mftCluster(tag), Len: 1})
}

// noteMetadataOp counts a metadata mutation toward the periodic log
// flush. Inside a batch the flush decision is deferred to EndBatch so
// the batch issues at most one force.
func (v *Volume) noteMetadataOp() {
	v.opsSinceFlush++
	if v.batchDepth > 0 {
		return
	}
	if v.opsSinceFlush >= LogFlushOps {
		v.FlushLog()
	}
}

// BeginBatch starts a metadata batch: MFT record writes are deferred
// and deduplicated, and the periodic log flush waits for EndBatch.
// Batches nest; only the outermost EndBatch forces.
//
// The deferral is volume-wide, like the NTFS lazy writer: a concurrent
// create or delete whose metadata lands while the batch is open rides
// the batch's coalesced force instead of writing its MFT record alone.
// EndBatch always flushes every deferred record, so no write is lost —
// such operations merely return before their record reaches disk.
func (v *Volume) BeginBatch() {
	if v.batchDepth == 0 && v.pendingMetaSet == nil {
		v.pendingMetaSet = make(map[int64]struct{})
	}
	v.batchDepth++
}

// EndBatch closes a metadata batch: each touched MFT cluster is written
// once — adjacent clusters coalesce into single runs — and the periodic
// log flush runs if the batch pushed the op count past the threshold.
// This is the group force of the filesystem commit path.
func (v *Volume) EndBatch() {
	if v.batchDepth == 0 {
		return
	}
	v.batchDepth--
	if v.batchDepth > 0 {
		return
	}
	if len(v.pendingMeta) > 0 {
		slices.Sort(v.pendingMeta)
		run := extent.Run{Start: v.pendingMeta[0], Len: 1}
		for _, c := range v.pendingMeta[1:] {
			if c == run.End() {
				run.Len++
				continue
			}
			v.statMetaWrite++
			v.drive.WriteRun(run, 0, 0, nil)
			run = extent.Run{Start: c, Len: 1}
		}
		v.statMetaWrite++
		v.drive.WriteRun(run, 0, 0, nil)
		// Drop only the touched entries: clear() pays for the map's
		// historical capacity on every batch, which at high stream counts
		// turns the group force into an O(peak batch) map sweep.
		for _, c := range v.pendingMeta {
			delete(v.pendingMetaSet, c)
		}
		v.pendingMeta = v.pendingMeta[:0]
	}
	if v.opsSinceFlush >= LogFlushOps {
		v.FlushLog()
	}
}

// indexGrow allocates one directory index buffer from general free space.
// No disk time is charged: index buffers live in the cache and reach disk
// through the lazy writer, amortized into the periodic log flush.
func (v *Volume) indexGrow() {
	runs, err := v.rc.AllocAppendScratch(1, -1)
	if err != nil {
		return // directory reuses a cached buffer under pressure
	}
	v.indexBufs = append(v.indexBufs, runs...)
}

// indexShrink releases the oldest directory index buffer.
func (v *Volume) indexShrink() {
	if len(v.indexBufs) == 0 {
		return
	}
	r := v.indexBufs[0]
	v.indexBufs = v.indexBufs[1:]
	v.rc.Free(r)
}

// FlushLog commits the transactional log: quarantined freed space becomes
// allocatable. A small sequential log write is charged.
func (v *Volume) FlushLog() {
	v.rc.CommitLog()
	v.opsSinceFlush = 0
	v.statFlushes++
	// The log lives in the metadata zone; charge one cluster write.
	v.drive.WriteRun(extent.Run{Start: v.metaStart, Len: 1}, 0, 0, nil)
}

// Stats reports operation counters.
type Stats struct {
	Creates, Deletes, Opens, LogFlushes int64
	// MetaWrites counts forced MFT record writes; batched commits
	// coalesce several record updates into one, so this is the
	// filesystem's forced-flush denominator alongside LogFlushes.
	MetaWrites   int64
	FreeRunCount int
	PendingBytes int64
}

// Stats returns volume counters.
func (v *Volume) Stats() Stats {
	return Stats{
		Creates:      v.statCreates,
		Deletes:      v.statDeletes,
		Opens:        v.statOpens,
		LogFlushes:   v.statFlushes,
		MetaWrites:   v.statMetaWrite,
		FreeRunCount: v.rc.RunCount(),
		PendingBytes: v.rc.PendingClusters() * v.ClusterSize(),
	}
}

// CheckInvariants panics unless the run cache passes its own check and
// every cluster of the volume is held exactly once: by the MFT zone, a
// file (temp files included), a directory index buffer, a free run or a
// run awaiting log commit. It is the counterpart of the database
// engine's check. Intended for tests.
func (v *Volume) CheckInvariants() {
	v.rc.CheckInvariants()
	type held struct {
		r     extent.Run
		owner string
	}
	all := []held{{extent.Run{Start: v.metaStart, Len: v.metaLen}, "the MFT zone"}}
	for name, f := range v.files {
		var n int64
		for _, r := range f.runs {
			all = append(all, held{r, "file " + name})
			n += r.Len
		}
		if n != f.allocated {
			panic(fmt.Sprintf("fs: file %s counts %d clusters, its runs hold %d", name, f.allocated, n))
		}
	}
	for _, r := range v.indexBufs {
		all = append(all, held{r, "a directory index buffer"})
	}
	free, pending := v.rc.Runs()
	for _, r := range free {
		all = append(all, held{r, "the free index"})
	}
	for _, r := range pending {
		all = append(all, held{r, "the log's pending list"})
	}
	slices.SortFunc(all, func(a, b held) int { return cmp.Compare(a.r.Start, b.r.Start) })
	clusters := v.drive.Geometry().Clusters
	var total int64
	for i, h := range all {
		if h.r.Len <= 0 || h.r.Start < 0 || h.r.End() > clusters {
			panic(fmt.Sprintf("fs: %s holds %v, outside the volume's %d clusters", h.owner, h.r, clusters))
		}
		if i > 0 && h.r.Start < all[i-1].r.End() {
			panic(fmt.Sprintf("fs: cluster %d held by both %s (%v) and %s (%v)",
				h.r.Start, all[i-1].owner, all[i-1].r, h.owner, h.r))
		}
		total += h.r.Len
	}
	if total != clusters {
		panic(fmt.Sprintf("fs: %d clusters accounted for, the volume has %d", total, clusters))
	}
}

// String summarises the volume.
func (v *Volume) String() string {
	return fmt.Sprintf("fs volume: %s capacity, %s free, %d files",
		units.FormatBytes(v.CapacityBytes()), units.FormatBytes(v.FreeBytes()), len(v.files))
}

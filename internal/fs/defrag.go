package fs

import (
	"sort"

	"repro/internal/extent"
)

// This file holds the per-file relocation the online compactor
// (internal/compact) drives through the store's CompactObject, the
// analogue of the Windows utility's on-line partial defragmentation the
// paper mentions (§3.4). The paper's conclusion warns that
// defragmentation "imposes read/write performance impacts that can
// outweigh its benefits", so every move charges full read+write disk
// time and the compactor's duty cycle meters it out. ShatterFiles, the
// §5.3 fixture, does the opposite: it fragments every file on purpose.

// CompactFile rewrites a single file into contiguous space, returning
// the bytes moved. It is the per-object entry point the online
// compactor drives: already-contiguous or open files are left
// alone (moved == 0). When the allocator cannot produce a contiguous
// run but freed space sits quarantined in the log, the log is flushed
// and the move retried once.
func (v *Volume) CompactFile(name string) (moved int64, ok bool) {
	f, exists := v.files[name]
	if !exists || f.open || f.Fragments() <= 1 {
		return 0, false
	}
	if !v.moveContiguous(f) {
		if v.rc.PendingClusters() == 0 {
			return 0, false
		}
		v.FlushLog()
		if !v.moveContiguous(f) {
			return 0, false
		}
	}
	return f.size, true
}

// moveContiguous rewrites f into a single run if the allocator can provide
// one. It charges a full read of the old layout and write of the new, and
// re-publishes the file as a fresh version (new *File, new tag) so handles
// pinned to the old location fail instead of reading relocated clusters.
func (v *Volume) moveContiguous(f *File) bool {
	need := f.allocated
	if need == 0 {
		return false
	}
	run, ok := v.rc.TakeContiguous(need)
	if !ok {
		return false
	}
	// Read old, write new, free old.
	for _, r := range f.runs {
		v.drive.ChargeRead(r)
	}
	tag := v.nextTag
	v.nextTag++
	v.drive.WriteRun(run, tag, 0, nil)
	for _, r := range f.runs {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	nf := &File{vol: v, name: f.name, tag: tag, size: f.size, data: f.data}
	nf.appendRuns([]extent.Run{run})
	v.files[f.name] = nf
	f.runs = nil
	f.allocated = 0
	f.data = nil
	v.metadataWrite(tag)
	v.noteMetadataOp()
	return true
}

// ShatterFiles artificially and pathologically fragments the volume:
// every live file is rewritten as scattered stripes of stripeClusters,
// with free space interleaved between them. It is the setup behind the
// paper's §5.3 observation: "When we ran on an artificially and
// pathologically fragmented NTFS volume, we found that fragmentation
// slowly decreases over time," i.e. the run cache is approaching an
// asymptote from above as well as from below. This is a test fixture, not
// a timed operation. It returns the resulting mean fragments per file.
func (v *Volume) ShatterFiles(stripeClusters int64) float64 {
	if stripeClusters <= 0 {
		stripeClusters = 16
	}
	v.FlushLog()
	// Sorted-name order: each file's stripes land where the files before
	// it left room, so map order would make the layout differ run to run.
	names := make([]string, 0, len(v.files))
	for name := range v.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var spacers []extent.Run
	for _, name := range names {
		f := v.files[name]
		need := f.allocated
		if need == 0 {
			continue
		}
		for _, r := range f.runs {
			v.rc.Free(r)
			v.drive.ClearOwner(r)
		}
		v.rc.CommitLog()
		f.runs = f.runs[:0]
		f.allocated = 0
		var seq int64
		for got := int64(0); got < need; {
			n := min(stripeClusters, need-got)
			runs, err := v.rc.Alloc(n)
			if err != nil {
				panic("fs: ShatterFiles ran out of space")
			}
			for _, r := range runs {
				v.drive.WriteRun(r, f.tag, seq, nil)
				seq += r.Len
			}
			f.appendRuns(runs)
			got += n
			// A spacer keeps the next stripe from landing adjacent.
			if sp, err := v.rc.Alloc(stripeClusters); err == nil {
				spacers = append(spacers, sp...)
			}
		}
	}
	for _, r := range spacers {
		v.rc.Free(r)
	}
	v.rc.CommitLog()
	var frags, n int
	for _, f := range v.files {
		frags += f.Fragments()
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(frags) / float64(n)
}

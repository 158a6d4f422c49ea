package fs

import (
	"sort"

	"repro/internal/extent"
)

// extRun builds an extent.Run (local shorthand).
func extRun(start, length int64) extent.Run { return extent.Run{Start: start, Len: length} }

// This file implements an online defragmenter analogous to the Windows
// utility the paper mentions (§3.4: "The Windows defragmentation utility
// supports on-line partial defragmentation"). The paper's conclusion warns
// that defragmentation "imposes read/write performance impacts that can
// outweigh its benefits" — the defragmenter charges full read+write disk
// time for every file it moves, so the harness can quantify that tradeoff.

// DefragReport summarises one defragmentation pass.
type DefragReport struct {
	FilesExamined   int
	FilesMoved      int
	FragmentsBefore int
	FragmentsAfter  int
	BytesMoved      int64
}

// CompactPass rewrites the worst-fragmented files into contiguous
// space, most-fragmented first, until budgetBytes of data has been
// moved (budgetBytes <= 0 means no limit). Files that cannot be placed
// contiguously are left in place. Every move charges a full read of the
// old layout and write of the new on the shared virtual clock — the
// §3.4 cost the compactor's duty cycle meters out.
func (v *Volume) CompactPass(budgetBytes int64) DefragReport {
	var rep DefragReport
	// Snapshot candidates; moving files mutates v.files' contents but not
	// the key set.
	files := make([]*File, 0, len(v.files))
	for _, f := range v.files {
		rep.FilesExamined++
		rep.FragmentsBefore += f.Fragments()
		if f.Fragments() > 1 {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].Fragments() != files[j].Fragments() {
			return files[i].Fragments() > files[j].Fragments()
		}
		return files[i].name < files[j].name
	})
	// Freed source extents must be reusable for subsequent moves.
	v.FlushLog()
	for _, f := range files {
		if budgetBytes > 0 && rep.BytesMoved >= budgetBytes {
			break
		}
		if v.moveContiguous(f) {
			rep.FilesMoved++
			rep.BytesMoved += f.size
			v.FlushLog()
		}
	}
	for _, f := range v.files {
		rep.FragmentsAfter += f.Fragments()
	}
	return rep
}

// CompactFile rewrites a single file into contiguous space, returning
// the bytes moved. It is the per-object entry point the online
// compactor drives: already-contiguous, packed, or open files are left
// alone (moved == 0). When the allocator cannot produce a contiguous
// run but freed space sits quarantined in the log, the log is flushed
// and the move retried once.
func (v *Volume) CompactFile(name string) (moved int64, ok bool) {
	f, exists := v.files[name]
	if !exists || f.pack != nil || f.open || f.Fragments() <= 1 {
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
	if need == 0 || f.pack != nil {
		return false
	}
	runs, err := v.rc.Alloc(need)
	if err != nil || len(runs) != 1 {
		// Could not get contiguous space; put any partial grant back.
		for _, r := range runs {
			v.rc.Free(r)
		}
		return false
	}
	// Read old, write new, free old.
	for _, r := range f.runs {
		v.drive.ChargeRead(r)
	}
	tag := v.nextTag
	v.nextTag++
	v.drive.WriteRun(runs[0], tag, 0, nil)
	for _, r := range f.runs {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	nf := &File{vol: v, name: f.name, tag: tag, size: f.size, data: f.data}
	nf.appendRuns(runs)
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
	var spacers []sfRun
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
				for _, r := range sp {
					spacers = append(spacers, sfRun{r.Start, r.Len})
				}
			}
		}
	}
	for _, s := range spacers {
		v.rc.Free(extRun(s.start, s.len))
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

type sfRun struct{ start, len int64 }

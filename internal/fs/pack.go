package fs

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/units"
)

// This file implements git-style pack files for the small-object tail.
// Many small files each pay a full cluster ceiling (a 1 KB object holds
// a 4 KB cluster) and scatter across the volume; a pack coalesces their
// bytes into one shared extent, byte-packed back to back, with an
// in-pack index (a fanout table plus per-member offset entries) stored
// in its own clusters. Members keep their names and sizes; reads map a
// member's byte range through the pack's cluster runs, charging one
// index-cluster read for the lookup plus the covered data clusters.
//
// Packing is a relocation: each member is re-published as a fresh File
// so handles pinned to the old version fail with ErrNotExist instead of
// observing a torn rewrite — the same version discipline Replace uses.

const (
	// packFanoutBytes is the fanout table: 256 buckets of 4 bytes, the
	// git idx v2 layout scaled to cluster granularity.
	packFanoutBytes = 1024
	// packEntryBytes is one member's index entry: name hash, byte
	// offset, and length.
	packEntryBytes = 32
	// packMinMembers is the smallest pack worth building; packing a
	// single file would only add index overhead.
	packMinMembers = 2
)

// Pack is one pack extent: the coalesced bytes of its members plus the
// in-pack index. Members reference the pack; the pack's clusters are
// freed when the last member dies.
type Pack struct {
	vol *Volume
	tag uint32

	runs      []extent.Run // data region, in logical (byte) order
	indexRuns []extent.Run // fanout + offset table

	totalBytes int64 // member bytes at build time
	liveBytes  int64 // member bytes still live
	members    map[string]*File
}

// PackOptions controls one PackFiles call.
type PackOptions struct {
	// Crash injects a failure after the pack's data and index are
	// written but before any member is switched over — the torn-rewrite
	// window Recover must clean up.
	Crash bool
}

// PackReport summarises one PackFiles call.
type PackReport struct {
	// Members is the number of files coalesced into the pack.
	Members int
	// Bytes is the live bytes the pack holds.
	Bytes int64
	// DataClusters and IndexClusters are the pack's on-disk footprint.
	DataClusters, IndexClusters int64
	// Fragments is the number of discontiguous runs backing the pack.
	Fragments int
	// Packed lists the member names actually packed, in pack order.
	Packed []string
}

// PackFiles coalesces the named small files into one pack extent.
// Files that are missing, open, or already packed are skipped; fewer
// than two eligible members is a no-op. The old per-file extents are
// read and the pack written at full disk cost, old space is freed
// (quarantined until the next log flush), and each member is
// re-published as a fresh File mapping into the pack.
func (v *Volume) PackFiles(names []string, opts PackOptions) (PackReport, error) {
	var rep PackReport
	cs := v.ClusterSize()

	var members []*File
	seen := make(map[string]bool, len(names))
	var totalBytes int64
	for _, name := range names {
		f, ok := v.files[name]
		if !ok || seen[name] || f.pack != nil || f.open || f.Size() <= 0 {
			continue
		}
		seen[name] = true
		members = append(members, f)
		totalBytes += f.size
	}
	if len(members) < packMinMembers {
		return rep, nil
	}

	dataClusters := units.CeilDiv(totalBytes, cs)
	indexClusters := units.CeilDiv(packFanoutBytes+packEntryBytes*int64(len(members)), cs)
	dataRuns, err := v.rc.Alloc(dataClusters)
	if err != nil {
		return rep, fmt.Errorf("%w: packing %d files (%s)", ErrNoSpace, len(members), units.FormatBytes(totalBytes))
	}
	indexRuns, err := v.rc.Alloc(indexClusters)
	if err != nil {
		for _, r := range dataRuns {
			v.rc.Free(r)
		}
		return rep, fmt.Errorf("%w: pack index (%d clusters)", ErrNoSpace, indexClusters)
	}

	// Read every member's old layout, then write the pack — data first,
	// index last, like a git pack and its idx.
	for _, f := range members {
		for _, r := range f.runs {
			v.drive.ChargeRead(r)
		}
	}
	tag := v.nextTag
	v.nextTag++
	var seq int64
	for _, r := range mergeRuns(dataRuns) {
		v.drive.WriteRun(r, tag, seq, nil)
		seq += r.Len
	}
	for _, r := range mergeRuns(indexRuns) {
		v.drive.WriteRun(r, tag, seq, nil)
		seq += r.Len
	}

	p := &Pack{
		vol:        v,
		tag:        tag,
		runs:       mergeRuns(dataRuns),
		indexRuns:  mergeRuns(indexRuns),
		totalBytes: totalBytes,
		members:    make(map[string]*File, len(members)),
	}
	rep.Members = len(members)
	rep.Bytes = totalBytes
	rep.DataClusters = dataClusters
	rep.IndexClusters = indexClusters
	rep.Fragments = len(p.runs)

	if opts.Crash {
		// The pack hit disk but no member points at it: an orphan pack,
		// swept by Recover exactly like an orphan temp file.
		v.orphanPacks = append(v.orphanPacks, p)
		return rep, fmt.Errorf("%w after pack write of %d files", ErrCrashed, len(members))
	}

	// Switch members over: free the old extents and re-publish each
	// member as a fresh File mapping into the pack. One metadata write
	// covers the pack commit (its record carries the member table).
	var off int64
	for _, f := range members {
		for _, r := range f.runs {
			v.rc.Free(r)
			v.drive.ClearOwner(r)
		}
		nf := &File{
			vol:     v,
			name:    f.name,
			tag:     tag,
			size:    f.size,
			pack:    p,
			packOff: off,
			data:    f.data,
		}
		off += f.size
		v.files[f.name] = nf
		p.members[f.name] = nf
		p.liveBytes += f.size
		rep.Packed = append(rep.Packed, f.name)
		f.runs = nil
		f.allocated = 0
		f.data = nil
	}
	v.packs[tag] = p
	v.metadataWrite(tag)
	v.noteMetadataOp()
	return rep, nil
}

// mergeRuns merges physically adjacent runs so the pack's fragment
// count reflects on-disk layout.
func mergeRuns(runs []extent.Run) []extent.Run {
	var out []extent.Run
	for _, r := range runs {
		if n := len(out); n > 0 && out[n-1].End() == r.Start {
			out[n-1].Len += r.Len
		} else {
			out = append(out, r)
		}
	}
	return out
}

// runsOf maps the byte range [off, off+length) of the pack's data
// region to on-disk cluster runs, merging adjacency.
func (p *Pack) runsOf(off, length int64) []extent.Run {
	if length <= 0 {
		return nil
	}
	cs := p.vol.ClusterSize()
	firstC := off / cs
	lastC := (off + length - 1) / cs
	var out []extent.Run
	var pos int64
	for _, r := range p.runs {
		rFirst, rLast := pos, pos+r.Len-1
		pos += r.Len
		if rLast < firstC || rFirst > lastC {
			continue
		}
		lo := max(firstC, rFirst)
		hi := min(lastC, rLast)
		seg := extent.Run{Start: r.Start + (lo - rFirst), Len: hi - lo + 1}
		if n := len(out); n > 0 && out[n-1].End() == seg.Start {
			out[n-1].Len += seg.Len
		} else {
			out = append(out, seg)
		}
	}
	return out
}

// readRange charges a read of the byte range [off, off+length) of the
// pack's data region: one index-cluster read for the fanout/offset
// lookup, then the covered data clusters.
func (p *Pack) readRange(off, length int64) {
	if len(p.indexRuns) > 0 {
		p.vol.drive.ChargeRead(extent.Run{Start: p.indexRuns[0].Start, Len: 1})
	}
	for _, r := range p.runsOf(off, length) {
		p.vol.drive.ChargeRead(r)
	}
}

// remove drops a member from the pack. The pack's clusters are freed —
// quarantined until the next log flush — once the last member dies.
func (p *Pack) remove(f *File) {
	delete(p.members, f.name)
	p.liveBytes -= f.size
	f.pack = nil
	if len(p.members) > 0 {
		return
	}
	v := p.vol
	for _, r := range p.runs {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	for _, r := range p.indexRuns {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	delete(v.packs, p.tag)
}

// freeOrphan releases an uncommitted pack's clusters during recovery.
func (p *Pack) freeOrphan() {
	v := p.vol
	for _, r := range p.runs {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	for _, r := range p.indexRuns {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
}

// PackRuns returns the runs carrying a live pack's tag in the order
// PackFiles wrote them, data then index; false when tag names no pack.
func (v *Volume) PackRuns(tag uint32) ([]extent.Run, bool) {
	p, ok := v.packs[tag]
	if !ok {
		return nil, false
	}
	return append(append([]extent.Run(nil), p.runs...), p.indexRuns...), true
}

// PackCount returns the number of live packs.
func (v *Volume) PackCount() int { return len(v.packs) }

// PackedLiveBytes returns the live member bytes held in packs.
func (v *Volume) PackedLiveBytes() int64 {
	var n int64
	for _, p := range v.packs {
		n += p.liveBytes
	}
	return n
}

// Packed reports whether the file's bytes live in a pack extent.
func (f *File) Packed() bool { return f.pack != nil }

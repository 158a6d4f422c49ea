package fs

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
)

// File is a named stream of bytes stored as a list of cluster runs, like
// an NTFS non-resident attribute. A File handle stays valid until the file
// is deleted, replaced, or relocated by compaction — relocation
// publishes a fresh File so stale handles cannot read moved clusters.
type File struct {
	vol  *Volume
	name string
	tag  uint32

	size      int64        // logical length in bytes
	runs      []extent.Run // allocated extents in logical order
	allocated int64        // clusters allocated (== sum of runs)

	// Delayed-allocation state: bytes buffered but not yet allocated.
	buffered int64
	open     bool // true while the file accepts appends

	// sizeHint, when set via SetSizeHint before the first append, lets
	// the allocator see the final size — the interface change the paper
	// proposes in §6.
	sizeHint int64

	// data holds the file's contents when the drive retains payloads.
	// Bytes below len(data) are never written again: reads hand out
	// views of this array.
	data []byte
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the logical file size in bytes, including buffered bytes.
func (f *File) Size() int64 { return f.size + f.buffered }

// Runs returns a copy of the file's extent list.
func (f *File) Runs() []extent.Run {
	out := make([]extent.Run, len(f.runs))
	copy(out, f.runs)
	return out
}

// Fragments returns the number of discontiguous extents storing the file.
// A contiguous file has 1 fragment (paper, Figure 2 caption).
func (f *File) Fragments() int {
	return len(f.runs)
}

// Tag returns the owner tag the file's clusters carry on disk.
func (f *File) Tag() uint32 { return f.tag }

// tailCluster returns the last allocated cluster, or -1.
func (f *File) tailCluster() int64 {
	if len(f.runs) == 0 {
		return -1
	}
	return f.runs[len(f.runs)-1].End() - 1
}

// appendRuns adds newly allocated runs to the extent list, merging when
// physically contiguous so Fragments() reflects on-disk layout.
func (f *File) appendRuns(runs []extent.Run) {
	for _, r := range runs {
		if n := len(f.runs); n > 0 && f.runs[n-1].End() == r.Start {
			f.runs[n-1].Len += r.Len
		} else {
			f.runs = append(f.runs, r)
		}
		f.allocated += r.Len
	}
}

// Create makes a new empty file open for appends. It charges the create
// CPU cost and an MFT record write. File structs are recycled from the
// volume's free list — every safe write creates and deletes a temp
// file, and at high stream counts the struct plus its extent list were
// a measurable slice of total allocations. A recycled File always
// carries a fresh tag, so stale handles to the dead File it once was
// cannot mistake it for their pinned version.
func (v *Volume) Create(name string) (*File, error) {
	if _, ok := v.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	v.drive.ChargeCPU(createCPUUs)
	var f *File
	if n := len(v.filePool); n > 0 {
		f = v.filePool[n-1]
		v.filePool[n-1] = nil
		v.filePool = v.filePool[:n-1]
		*f = File{vol: v, name: name, tag: v.nextTag, open: true, runs: f.runs[:0]}
	} else {
		f = &File{vol: v, name: name, tag: v.nextTag, open: true}
	}
	v.nextTag++
	v.files[name] = f
	v.metadataWrite(f.tag)
	v.indexGrow()
	v.statCreates++
	v.noteMetadataOp()
	return f, nil
}

// SetSizeHint declares the file's final size before data arrives, letting
// the allocator reserve contiguous space up front. It must be called
// before the first append. This is the allocation-interface extension the
// paper argues for: "There is no way to pass the (known) object size to
// the file system at file creation" (§5.4).
func (f *File) SetSizeHint(size int64) error {
	if f.size > 0 || f.allocated > 0 || f.buffered > 0 {
		return fmt.Errorf("%w: size hint after data was written to %s", blob.ErrInvalidSize, f.name)
	}
	f.sizeHint = size
	return nil
}

// ReservePayload makes room in a data-mode file's retained buffer for
// the n payload bytes a writer is about to append, growing it to at most
// declared bytes: the first reservation is min(declared, 2n), a later
// one at least doubles the buffer. Memory follows the bytes that have
// arrived, not the size a client merely declared, and a writer whose
// first append carries half the object or more fills one buffer with no
// regrowth copy. Memory only: unlike SetSizeHint the allocator never
// sees it, so the on-disk layout is the same with and without it.
func (f *File) ReservePayload(n, declared int64) {
	held := int64(len(f.data))
	if f.vol.drive.Mode() != disk.DataMode || held+n <= int64(cap(f.data)) {
		return
	}
	size := min(declared, 2*max(int64(cap(f.data)), n))
	grown := make([]byte, held, max(size, held+n))
	copy(grown, f.data)
	f.data = grown
}

// Append writes len(dataOrNil) bytes — or n bytes when data is nil — to
// the end of the file. Each call is one write request: without delayed
// allocation, space for exactly this request is allocated now, which is
// why the write-request size shapes long-term fragmentation (§5.3, §5.4).
func (f *File) Append(n int64, data []byte) error {
	if !f.open {
		return fmt.Errorf("%w: %s", ErrClosed, f.name)
	}
	if data != nil {
		n = int64(len(data))
	}
	if n <= 0 {
		return fmt.Errorf("%w: empty append to %s", blob.ErrInvalidSize, f.name)
	}
	v := f.vol
	if v.cfg.DelayedAllocation {
		// Buffer only; allocation happens at Close with the size known.
		f.buffered += n
		f.storeData(data)
		return nil
	}
	if err := f.appendAllocated(n); err != nil {
		return err
	}
	f.storeData(data)
	return nil
}

// appendAllocated allocates and charges the disk writes for n more bytes.
func (f *File) appendAllocated(n int64) error {
	v := f.vol
	cs := v.ClusterSize()
	newSize := f.size + n
	needClusters := units.CeilDiv(newSize, cs) - f.allocated
	if needClusters > 0 {
		want := needClusters
		// With a size hint and no allocation yet, request the whole
		// object's worth of clusters in one go.
		if f.sizeHint > newSize && f.allocated == 0 {
			want = units.CeilDiv(f.sizeHint, cs)
		}
		// Scratch-backed allocation: the runs are copied into the extent
		// list below and never retained.
		runs, err := v.rc.AllocAppendScratch(want, f.tailCluster())
		if err != nil {
			return fmt.Errorf("%w: appending %d bytes to %s", ErrNoSpace, n, f.name)
		}
		f.writeNewRuns(runs)
		f.appendRuns(runs)
	} else {
		// Fits in the slack of the last cluster; charge a rewrite of it.
		tail := f.tailCluster()
		v.drive.WriteRun(extent.Run{Start: tail, Len: 1}, f.tag, f.allocated-1, nil)
	}
	f.size = newSize
	return nil
}

// writeNewRuns issues the disk writes for freshly allocated runs, with
// owner tags carrying the object-relative cluster sequence.
func (f *File) writeNewRuns(runs []extent.Run) {
	seq := f.allocated
	for _, r := range runs {
		f.vol.drive.WriteRun(r, f.tag, seq, nil)
		seq += r.Len
	}
}

// Close ends the append phase. Under delayed allocation this is where
// space is allocated — in a single request sized to the full buffered
// length, the behaviour that "trade[s] system memory ... for improved
// information about the object's final size" (§5.4).
func (f *File) Close() error {
	if !f.open {
		return nil
	}
	v := f.vol
	if f.buffered > 0 {
		// The buffered bytes already sit in f.data; only the space is new.
		n := f.buffered
		f.buffered = 0
		if err := f.appendAllocated(n); err != nil {
			f.data = nil
			return err
		}
	}
	f.open = false
	// Final MFT update records the true size and extent list.
	v.metadataWrite(f.tag)
	v.noteMetadataOp()
	return nil
}

// Open looks a file up by name, charging the open cost (CPU plus an MFT
// record read). The returned handle supports reads.
func (v *Volume) Open(name string) (*File, error) {
	f, ok := v.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	v.drive.ChargeCPU(openCPUUs)
	v.metadataRead(f.tag)
	v.statOpens++
	return f, nil
}

// Lookup returns the file without charging open costs. For analysis tools.
func (v *Volume) Lookup(name string) (*File, bool) {
	f, ok := v.files[name]
	return f, ok
}

// ReadAll reads the whole file, charging a seek per fragment — the paper's
// core cost mechanism. When the drive retains payloads the result is a
// read-only view of the file's contents (see view); otherwise nil.
func (f *File) ReadAll() []byte {
	for _, r := range f.runs {
		f.vol.drive.ChargeRead(r)
	}
	return f.view(0, int64(len(f.data)))
}

// view returns data[off:off+length] without copying, capacity clipped, or
// nil when the range is not retained. The caller must not write through
// it. Its bytes never change: a closed file's contents are immutable, and
// delete, replace and relocation drop or move the slice, not the bytes.
func (f *File) view(off, length int64) []byte {
	if off+length > int64(len(f.data)) {
		return nil
	}
	return f.data[off : off+length : off+length]
}

// ReadAt reads length bytes starting at off, touching only the runs that
// cover the range. When the drive retains payloads the covered bytes are
// returned; otherwise nil.
func (f *File) ReadAt(off, length int64) ([]byte, error) {
	// length > f.size-off rather than off+length > f.size: the sum can
	// overflow int64 for hostile offsets, the subtraction cannot.
	if off < 0 || length < 0 || length > f.size-off {
		return nil, fmt.Errorf("%w: read [%d,+%d) beyond size %d of %s", blob.ErrOutOfRange, off, length, f.size, f.name)
	}
	if length == 0 {
		return nil, nil
	}
	cs := f.vol.ClusterSize()
	firstC := off / cs
	lastC := (off + length - 1) / cs
	var pos int64
	for _, r := range f.runs {
		rFirst, rLast := pos, pos+r.Len-1
		pos += r.Len
		if rLast < firstC || rFirst > lastC {
			continue
		}
		lo := max(firstC, rFirst)
		hi := min(lastC, rLast)
		f.vol.drive.ChargeRead(extent.Run{Start: r.Start + (lo - rFirst), Len: hi - lo + 1})
	}
	return f.view(off, length), nil
}

// Delete removes a file. Its clusters are quarantined until the next log
// flush — the NTFS behaviour that defers reuse of freed space (§2).
func (v *Volume) Delete(name string) error {
	f, ok := v.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	v.drive.ChargeCPU(deleteCPUUs)
	for _, r := range f.runs {
		v.rc.Free(r)
		v.drive.ClearOwner(r)
	}
	f.data = nil
	delete(v.files, name)
	v.metadataWrite(f.tag)
	v.indexShrink()
	v.statDeletes++
	v.noteMetadataOp()
	// Retire the struct to the free list, keeping the extent list's
	// capacity. The dead File keeps open=false and its (now unmapped)
	// tag until reuse, so a stale handle still fails validation.
	f.runs = f.runs[:0]
	f.allocated = 0
	f.open = false
	f.size = 0
	f.buffered = 0
	f.sizeHint = 0
	if len(v.filePool) < maxFilePool {
		v.filePool = append(v.filePool, f)
	}
	return nil
}

// maxFilePool bounds the volume's recycled-File free list.
const maxFilePool = 1024

// Rename atomically renames oldName to newName, replacing any existing
// file at newName (the ReplaceFile/rename(2) semantics safe writes rely
// on, §4).
func (v *Volume) Rename(oldName, newName string) error {
	f, ok := v.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	v.drive.ChargeCPU(renameCPUUs)
	if _, exists := v.files[newName]; exists {
		if err := v.Delete(newName); err != nil {
			return err
		}
	}
	delete(v.files, oldName)
	f.name = newName
	v.files[newName] = f
	v.metadataWrite(f.tag)
	// ReplaceFile rewrites both directory entries; the index B-tree churn
	// cycles another buffer through general free space.
	v.indexShrink()
	v.indexGrow()
	v.noteMetadataOp()
	return nil
}

// EachFile calls fn for every live file.
func (v *Volume) EachFile(fn func(*File)) {
	for _, f := range v.files {
		fn(f)
	}
}

// storeData appends payload bytes to the file's retained contents — the
// one copy a payload byte gets on its way in, into the buffer
// ReservePayload sized.
func (f *File) storeData(data []byte) {
	if data == nil || f.vol.drive.Mode() != disk.DataMode {
		return
	}
	f.data = append(f.data, data...)
}

package fs

import (
	"fmt"
	"strings"

	"repro/internal/blob"
)

// This file implements safe writes — the atomic whole-object replacement
// protocol the paper uses for the filesystem side of the comparison (§4):
// "an application writes the object to a temporary file, forces that file
// to be written to disk, and then atomically replaces the permanent file
// with the temporary file" (ReplaceFile on Windows, rename(2) on UNIX).
//
// CrashPoint support lets tests inject a failure at each protocol step and
// assert that the old version survives intact — the durability property
// that makes safe writes comparable to the database's transactional
// update.

// CrashPoint identifies a step of the safe-write protocol at which a
// simulated crash occurs.
type CrashPoint int

const (
	// NoCrash runs the protocol to completion.
	NoCrash CrashPoint = iota
	// CrashAfterCreate crashes after the temp file is created, before
	// any data is written.
	CrashAfterCreate
	// CrashAfterWrite crashes after data is written and forced, before
	// the rename.
	CrashAfterWrite
	// CrashAfterRename never happens in practice (rename is the atomic
	// commit point) but is included so tests can assert the new version
	// is durable from that point on.
	CrashAfterRename
)

// ErrCrashed is wrapped by errors returned from injected crashes. It is
// the blob sentinel, so crash failures are typed end-to-end.
var ErrCrashed = blob.ErrCrashed

// TempSuffix marks the temporary files of in-flight safe writes;
// Recover sweeps orphans carrying it.
const TempSuffix = ".tmp~"

// TempName returns the temporary-file name a safe write of name uses.
func TempName(name string) string { return name + TempSuffix }

// IsTemp is the one rule for what a temp file is.
func IsTemp(name string) bool { return strings.HasSuffix(name, TempSuffix) }

// FileName maps an object key onto its file's name: a key ending in '~'
// gets one more, so no key's file is a temp ("…p~") and no key's temp
// is another key's file.
func FileName(key string) string {
	if strings.HasSuffix(key, "~") {
		return key + "~"
	}
	return key
}

// KeyOf inverts FileName for a file that is not a temp.
func KeyOf(name string) string { return strings.TrimSuffix(name, "~") }

// SafeWriteOptions controls a safe write.
type SafeWriteOptions struct {
	// WriteRequestSize is the number of bytes per append request; the
	// paper's tests used 64 KB requests (§5.3). Zero means write the
	// whole object in a single request.
	WriteRequestSize int64
	// Crash injects a failure at the given protocol step.
	Crash CrashPoint
	// SizeHint passes the final object size to the allocator before the
	// first append (the paper's proposed interface, §6).
	SizeHint bool
}

// SafeWrite atomically replaces (or creates) name with size bytes of new
// content, following the temp-file/force/rename protocol. data may be nil
// for metadata-only simulation; when non-nil it must be exactly size
// bytes.
func (v *Volume) SafeWrite(name string, size int64, data []byte, opts SafeWriteOptions) error {
	if size <= 0 {
		return fmt.Errorf("%w: safe write of %d bytes to %s", blob.ErrInvalidSize, size, name)
	}
	if data != nil && int64(len(data)) != size {
		return fmt.Errorf("%w: data length %d != size %d", blob.ErrInvalidSize, len(data), size)
	}
	tmp := TempName(name)
	// A leftover temp from a previous crashed attempt is replaced.
	if _, ok := v.files[tmp]; ok {
		if err := v.Delete(tmp); err != nil {
			return err
		}
	}
	f, err := v.Create(tmp)
	if err != nil {
		return err
	}
	if opts.Crash == CrashAfterCreate {
		return fmt.Errorf("%w after create of %s", ErrCrashed, tmp)
	}
	if opts.SizeHint {
		if err := f.SetSizeHint(size); err != nil {
			return err
		}
	}
	f.ReservePayload(size)
	req := opts.WriteRequestSize
	if req <= 0 {
		req = size
	}
	for off := int64(0); off < size; off += req {
		n := min(req, size-off)
		var chunk []byte
		if data != nil {
			chunk = data[off : off+n]
		}
		if err := f.Append(n, chunk); err != nil {
			// Allocation failure: remove the partial temp file.
			_ = v.Delete(tmp)
			return err
		}
	}
	// Close forces the data (and performs allocation under delayed
	// allocation).
	if err := f.Close(); err != nil {
		_ = v.Delete(tmp)
		return err
	}
	if opts.Crash == CrashAfterWrite {
		return fmt.Errorf("%w after write of %s", ErrCrashed, tmp)
	}
	// Atomic commit point.
	if err := v.Rename(tmp, name); err != nil {
		return err
	}
	if opts.Crash == CrashAfterRename {
		return fmt.Errorf("%w after rename to %s", ErrCrashed, name)
	}
	return nil
}

// Recover cleans up after a crash: orphaned temp files are deleted,
// orphan packs (written but never committed to any member) have their
// clusters freed, and the log is flushed, mirroring NTFS log replay at
// mount. It returns the number of temp files removed.
func (v *Volume) Recover() int {
	var orphans []string
	for name := range v.files {
		if IsTemp(name) {
			orphans = append(orphans, name)
		}
	}
	for _, name := range orphans {
		_ = v.Delete(name)
	}
	for _, p := range v.orphanPacks {
		p.freeOrphan()
	}
	v.orphanPacks = nil
	v.FlushLog()
	return len(orphans)
}

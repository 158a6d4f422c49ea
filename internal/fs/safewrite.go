package fs

import (
	"strings"

	"repro/internal/blob"
)

// This file holds the volume's side of safe writes — the atomic
// whole-object replacement protocol the paper uses for the filesystem
// side of the comparison (§4): "an application writes the object to a
// temporary file, forces that file to be written to disk, and then
// atomically replaces the permanent file with the temporary file"
// (ReplaceFile on Windows, rename(2) on UNIX). core.FileStore runs the
// protocol over Create, Append, Close and Rename; here are the temp-file
// naming rule and Recover, which sweeps what a crash left behind.

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

// Recover cleans up after a crash: orphaned temp files are deleted and
// the log is flushed, mirroring NTFS log replay at mount. It returns the
// number of temp files removed.
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
	v.FlushLog()
	return len(orphans)
}

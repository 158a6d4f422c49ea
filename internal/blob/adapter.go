package blob

import (
	"context"
	"errors"
)

// BufferAdapter bridges whole-buffer call sites onto the streaming API:
// each method opens the appropriate streaming handle, moves the entire
// buffer through it, and commits. The workload generator, trace
// replayer, and CLIs use it where an operation is logically one
// whole-object transfer; code that genuinely streams should use the
// Store handles directly.

// Put stores a new object of size bytes through a streaming writer.
// data may be nil for metadata-only simulation; when non-nil it must be
// size bytes long.
func Put(ctx context.Context, s Store, key string, size int64, data []byte) error {
	w, err := s.Create(ctx, key, size)
	if err != nil {
		return err
	}
	return WriteAll(w, size, data)
}

// Replace safely replaces (or creates) an object with size new bytes
// through a streaming writer; the previous version survives any failure
// before commit.
func Replace(ctx context.Context, s Store, key string, size int64, data []byte) error {
	w, err := s.Replace(ctx, key, size)
	if err != nil {
		return err
	}
	return WriteAll(w, size, data)
}

// Get reads a whole object, returning its size and — when the backing
// drive retains payloads — its contents. A version that dies between
// the Open and the read (a replace, delete or relocation committed in
// between) does not fail the get: it opens again, so a get of a key
// that stays live succeeds under any churn. An Open that fails ends it.
func Get(ctx context.Context, s Store, key string) (int64, []byte, error) {
	for {
		r, err := s.Open(ctx, key)
		if err != nil {
			return 0, nil, err
		}
		data, err := r.ReadAll()
		size := r.Size()
		r.Close()
		switch {
		case err == nil:
			return size, data, nil
		case !errors.Is(err, ErrNotFound):
			return 0, nil, err
		}
	}
}

// WriteAll appends one whole buffer to w and commits, aborting the
// writer on any failure so the key is released.
func WriteAll(w Writer, size int64, data []byte) error {
	if err := w.Append(size, data); err != nil {
		w.Abort()
		return err
	}
	if err := w.Commit(); err != nil {
		w.Abort()
		return err
	}
	return nil
}

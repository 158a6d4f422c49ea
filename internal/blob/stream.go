package blob

import (
	"context"
	"fmt"
)

// StreamState is the declared-size bookkeeping shared by backend
// writers. It owns the validation ladder every Append and Commit must
// pass — closed-handle, cancellation, payload-length, empty-append,
// declared-size overflow, mixed payload/metadata, short commit — so
// backends cannot drift on semantics or error precedence.
type StreamState struct {
	key      string
	size     int64 // declared total
	written  int64
	withData bool // appends carry payload bytes (fixed by the first append)
	closed   bool
}

// NewStreamState starts bookkeeping for one stream of size bytes to key.
func NewStreamState(key string, size int64) StreamState {
	return StreamState{key: key, size: size}
}

// WithData reports whether the stream carries payload bytes.
func (s *StreamState) WithData() bool { return s.withData }

// Closed reports whether the stream was committed or aborted.
func (s *StreamState) Closed() bool { return s.closed }

// Close marks the stream committed or aborted; every later Append or
// Commit fails with ErrClosed.
func (s *StreamState) Close() { s.closed = true }

// BeginAppend validates one Append call. The caller appends only after
// a nil return and reports actual progress through NoteAppended.
func (s *StreamState) BeginAppend(ctx context.Context, n int64, data []byte) error {
	if s.closed {
		return fmt.Errorf("%w: writer for %s", ErrClosed, s.key)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if data != nil && int64(len(data)) != n {
		return fmt.Errorf("%w: data length %d != append size %d", ErrInvalidSize, len(data), n)
	}
	if n <= 0 {
		return fmt.Errorf("%w: empty append to %s", ErrInvalidSize, s.key)
	}
	if s.written+n > s.size {
		return fmt.Errorf("%w: appending %d bytes past declared size %d of %s",
			ErrInvalidSize, n, s.size, s.key)
	}
	if s.written == 0 {
		s.withData = data != nil
	} else if (data != nil) != s.withData {
		return fmt.Errorf("%w: stream to %s mixes payload and metadata-only appends",
			ErrInvalidSize, s.key)
	}
	return nil
}

// NoteAppended records n appended bytes.
func (s *StreamState) NoteAppended(n int64) { s.written += n }

// BeginCommit validates a Commit call: the stream must be open, live,
// and complete to the declared size.
func (s *StreamState) BeginCommit(ctx context.Context) error {
	if s.closed {
		return fmt.Errorf("%w: writer for %s", ErrClosed, s.key)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.written != s.size {
		return fmt.Errorf("%w: committed %d of %d declared bytes to %s",
			ErrInvalidSize, s.written, s.size, s.key)
	}
	return nil
}

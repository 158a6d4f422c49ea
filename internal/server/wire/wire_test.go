package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestReadBody pins the sized body read: a declared length yields
// exactly that many bytes in a buffer of exactly that size, a body
// shorter than declared is an error and not a short payload, and an
// absent or implausible declaration still reads everything that came.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 1000)
	data, err := ReadBody(bytes.NewReader(payload), int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) || cap(data) != len(payload) {
		t.Fatalf("declared read: %d bytes (cap %d), err %v", len(data), cap(data), err)
	}
	if _, err := ReadBody(bytes.NewReader(payload[:100]), int64(len(payload))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body = %v, want io.ErrUnexpectedEOF", err)
	}
	for _, declared := range []int64{-1, maxSizedBody + 1} {
		data, err := ReadBody(bytes.NewReader(payload), declared)
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("declared %d: %d bytes, err %v", declared, len(data), err)
		}
	}
	if data, err := ReadBody(bytes.NewReader(nil), 0); err != nil || data == nil || len(data) != 0 {
		t.Fatalf("empty body = (%v, %v), want an empty non-nil payload", data, err)
	}
}

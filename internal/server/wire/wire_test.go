package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
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

// TestReadBodyGrowsToTheDeclaredLength pins the read of a body declared
// longer than ReadBody's first buffer: it arrives whole in a buffer of
// exactly the declared size, and a body cut short on a buffer boundary is
// still io.ErrUnexpectedEOF.
func TestReadBodyGrowsToTheDeclaredLength(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), (3*firstBody+12345)/16)
	data, err := ReadBody(bytes.NewReader(payload), int64(len(payload)))
	if err != nil || !bytes.Equal(data, payload) || cap(data) != len(payload) {
		t.Fatalf("declared read: %d bytes (cap %d), err %v", len(data), cap(data), err)
	}
	if _, err := ReadBody(bytes.NewReader(payload[:2*firstBody]), int64(len(payload))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body cut at a buffer boundary = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestLyingContentLengthAllocatesWhatArrived: a peer that declares 1 GiB,
// sends one byte and hangs up costs the reader its first buffer, not the
// declared gigabyte, and the short body is a typed error.
func TestLyingContentLengthAllocatesWhatArrived(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		server.Write([]byte{'x'})
		server.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := ReadBody(client, 1<<30)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("reading a 1-byte body declared 1 GiB allocated %d MB", grew>>20)
	}
	if data != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadBody = %d bytes, %v; want io.ErrUnexpectedEOF", len(data), err)
	}
}

// TestHead pins the head scanner both ends of the wire share. Its line
// reader returns io.EOF only before a head's first byte and
// io.ErrUnexpectedEOF after it, gathers a line longer than the reader's
// buffer whole, and charges MaxHead across a head's lines and what is
// read after them (a chunked body's trailer). Next keeps the framing
// fields and hands over every other with the first-seen bits, and a
// malformed field ends it with an error wrapping Bad.
func TestHead(t *testing.T) {
	bad, tooLarge := errors.New("bad"), errors.New("too large")
	head := func(s string) *Head {
		return &Head{R: bufio.NewReaderSize(strings.NewReader(s), 16), Bad: bad, TooLarge: tooLarge}
	}
	if _, err := head("").Start(); err != io.EOF {
		t.Fatalf("no bytes: %v, want io.EOF", err)
	}
	if _, err := head("GET /").Start(); err != io.ErrUnexpectedEOF {
		t.Fatalf("start line cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	h := head("GET / HTTP/1.1\r\nX-A: 1\r\n")
	if _, err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for h.Next() {
	}
	if h.Err != io.ErrUnexpectedEOF {
		t.Fatalf("fields cut short: %v, want io.ErrUnexpectedEOF", h.Err)
	}
	long := "GET /" + strings.Repeat("k", 100) + " HTTP/1.1"
	if line, err := head(long + "\r\n").Start(); err != nil || string(line) != long {
		t.Fatalf("long line: %q, %v", line, err)
	}

	h = head("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nx-a: 1\r\nConnection: Keep-Alive, close\r\n" +
		"X-A: 2\r\ncontent-length: 5\r\nTransfer-Encoding: chunked\r\nX-B:\t 3 \r\n\r\n" +
		strings.Repeat("t", MaxHead) + "\r\n")
	if _, err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for h.Next() {
		if h.First(1 << (h.Name[len(h.Name)-1] | 0x20 - 'a')) {
			got = append(got, string(h.Name)+"="+string(h.Value))
		}
	}
	if h.Err != nil || h.Length != 5 || !h.Chunked || !h.Close || !h.KeepAlive || strings.Join(got, " ") != "x-a=1 X-B=3" {
		t.Fatalf("fields %q, length %d chunked %v close %v keep-alive %v, %v", got, h.Length, h.Chunked, h.Close, h.KeepAlive, h.Err)
	}
	if _, err := h.Line(); err != tooLarge {
		t.Fatalf("a trailer line past what the head left: %v, want the TooLarge error", err)
	}

	for _, field := range []string{"Content-Length: 05", "Content-Length: 5\r\nContent-Length: 6", "Transfer-Encoding: gzip",
		"Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked", "X-A : 1", "X-A: 1\x00", "no colon", " X-A: 1"} {
		h := head("GET / HTTP/1.1\r\n" + field + "\r\n\r\n")
		if _, err := h.Start(); err != nil {
			t.Fatal(err)
		}
		for h.Next() {
		}
		if !errors.Is(h.Err, bad) {
			t.Errorf("%q: %v, want an error wrapping Bad", field, h.Err)
		}
	}
}

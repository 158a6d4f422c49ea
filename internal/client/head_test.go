package client

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server/wire"
)

// FuzzResponseHead holds readResponse to net/http's http.ReadResponse,
// which the client parsed responses with before it read heads itself.
// Neither may panic. Where both accept a head they must agree on the
// status, the body's framing (declared length, chunked, or ended by
// close — a response to HEAD and a 1xx, 204 or 304 have no body), whether
// the connection may be kept, and every X-Blob-* value the client reads;
// where both then read the body to its end, on its bytes. A head
// readResponse refuses is an error wrapping ErrBadResponse, or
// io.ErrUnexpectedEOF when it is cut short. readResponse is stricter
// than net/http (HTTP/1.1 only, one line per field, no space before a
// colon, no leading zero in Content-Length, no head past wire.MaxHead
// bytes), so it may refuse what ReadResponse accepts; a head it accepts
// and ReadResponse refuses must fall in a class of readResponseOnly. The
// field rules are wire.Head's, which FuzzRequestHead (internal/server)
// drives through the server's end too.
//
// The seed corpus in testdata/fuzz/FuzzResponseHead holds responses
// captured from internal/server for each route (a metadata GET, a 206
// range, HEAD, PUT, 404/409/429 with X-Blob-Error, a chunked /v1/keys, a
// GET sent with Connection: close), then truncated and hostile variants:
// long-line, a 5 KB field line past the read buffer that is read as
// net/http reads it, and too-large and too-large-line, heads past
// wire.MaxHead that are refused.
func FuzzResponseHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, head bool, data []byte) {
		method := http.MethodGet
		if head {
			method = http.MethodHead
		}
		br := bufio.NewReader(bytes.NewReader(data))
		in := wire.Head{R: br, Bad: ErrBadResponse, TooLarge: errHeadTooLarge}
		got, err := readResponse(&in, method)
		ref, rerr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), &http.Request{Method: method})
		if err != nil {
			if !errors.Is(err, ErrBadResponse) && err != io.ErrUnexpectedEOF {
				t.Fatalf("%s %q: error %v wraps neither ErrBadResponse nor io.ErrUnexpectedEOF", method, data, err)
			}
			return
		}
		if rerr != nil {
			if !readResponseOnly(data, method) {
				t.Fatalf("%s %q: accepted, but http.ReadResponse refuses it: %v", method, data, rerr)
			}
			return
		}
		if got.status != ref.StatusCode {
			t.Fatalf("%s %q: status %d, net/http %d", method, data, got.status, ref.StatusCode)
		}
		length, chunked := ref.ContentLength, len(ref.TransferEncoding) > 0
		if s := ref.StatusCode; method == http.MethodHead || s/100 == 1 || s == 204 || s == 304 {
			length, chunked = 0, false
		}
		// A chunked body's trailer is left unread, so its connection is not kept.
		if keep := !ref.Close && !chunked; got.length != length || got.chunked != chunked || got.keep != keep {
			t.Fatalf("%s %q: length %d chunked %v keep %v, net/http %d %v %v",
				method, data, got.length, got.chunked, got.keep, length, chunked, keep)
		}
		h := ref.Header
		for _, c := range []struct {
			name string
			got  any
			want any
		}{
			{wire.HeaderClock, got.clock, number(h.Get(wire.HeaderClock))},
			{wire.HeaderSize, got.size, number(h.Get(wire.HeaderSize))},
			{wire.HeaderVersion, got.version, number(h.Get(wire.HeaderVersion))},
			{wire.HeaderMeta, got.meta, h.Get(wire.HeaderMeta) == "1"},
			{wire.HeaderError, got.errName, h.Get(wire.HeaderError)},
		} {
			if c.got != c.want {
				t.Fatalf("%s %q: %s %v, net/http %v", method, data, c.name, c.got, c.want)
			}
		}
		var b body
		b.frame(br, &got)
		mine, merr := io.ReadAll(b.Reader)
		theirs, terr := io.ReadAll(ref.Body)
		if merr == nil && terr == nil && !bytes.Equal(mine, theirs) {
			t.Fatalf("%s %q: body %q, net/http %q", method, data, mine, theirs)
		}
	})
}

// TestResponseHeadBudget: a response head line longer than the
// connection's read buffer is read like any other, as net/http reads it,
// and a head past wire.MaxHead bytes, in one line or many, is refused
// with ErrBadResponse.
func TestResponseHeadBudget(t *testing.T) {
	pad := func(n int) string { return "X-Pad: " + strings.Repeat("p", n) + "\r\n" }
	for _, tc := range []struct {
		name, head string
		ok         bool
	}{
		{"line past the buffer", "HTTP/1.1 200 OK\r\n" + pad(5000) + "X-Blob-Size: 7\r\nContent-Length: 0\r\n\r\n", true},
		{"line past MaxHead", "HTTP/1.1 200 OK\r\n" + pad(wire.MaxHead) + "Content-Length: 0\r\n\r\n", false},
		{"block past MaxHead", "HTTP/1.1 200 OK\r\n" + strings.Repeat(pad(1000), 70) + "Content-Length: 0\r\n\r\n", false},
	} {
		in := wire.Head{R: bufio.NewReader(strings.NewReader(tc.head)), Bad: ErrBadResponse, TooLarge: errHeadTooLarge}
		got, err := readResponse(&in, http.MethodGet)
		if tc.ok && (err != nil || got.size != 7 || got.length != 0) || !tc.ok && !errors.Is(err, ErrBadResponse) {
			t.Errorf("%s: size %d length %d, %v", tc.name, got.size, got.length, err)
		}
	}
}

// number is how readResponse reads a wire header's number.
func number(v string) int64 {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// readResponseOnly reports whether a head http.ReadResponse refuses falls
// in a class readResponse may accept. A framing header (Content-Length,
// Transfer-Encoding, Connection) has none. The one class:
//
//   - A Trailer field declaring Content-Length, Transfer-Encoding or
//     Trailer as a trailer. net/http refuses the declaration; the client
//     reads no Trailer field and never a chunked body's trailer (it drops
//     the connection instead), so a declaration cannot change how it
//     frames a body. The head is in the class if net/http accepts it once
//     its Trailer lines are dropped.
func readResponseOnly(data []byte, method string) bool {
	var kept []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasPrefix(bytes.ToLower(line), []byte("trailer:")) {
			kept = append(kept, line...)
		}
	}
	_, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(kept)), &http.Request{Method: method})
	return err == nil
}

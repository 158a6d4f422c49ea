package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"strconv"

	"repro/internal/server/wire"
)

// ErrBadResponse is wrapped by the error of a response the client cannot
// use: a malformed head, a head longer than wire.MaxHead bytes,
// conflicting Content-Lengths or a transfer coding other than chunked
// (the connection is then closed), or a success without a wire header
// the call needs.
var ErrBadResponse = errors.New("client: bad response")

var errHeadTooLarge = fmt.Errorf("%w: head longer than %d bytes", ErrBadResponse, wire.MaxHead)

// send writes one request in one writev: the head, then payload, which
// is not referenced after send returns. The head is what net/http's
// Request.Write sends for the call less User-Agent: the request line with
// path as given (already escaped), Host, the wire headers hdr (name,
// value pairs) and, for a PUT or a body, Content-Length. It reports how
// many bytes left.
func (c *conn) send(method, host, path string, payload []byte, hdr []string) (int64, error) {
	b := append(append(append(c.head[:0], method...), ' '), path...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), host...)
	for i := 0; i+1 < len(hdr); i += 2 {
		b = append(append(append(append(b, "\r\n"...), hdr[i]...), ": "...), hdr[i+1]...)
	}
	if len(payload) > 0 || method == http.MethodPut {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(payload)), 10)
	}
	c.head = append(b, "\r\n\r\n"...)
	c.bufs = append(c.vec[:0], c.head, payload)
	n, err := c.bufs.WriteTo(c.Conn)
	c.vec = [2][]byte{}
	return n, err
}

// response is a parsed response head. A wire number is -1 when absent or
// malformed; of a repeated wire header the first counts, as with
// http.Header.Get.
type response struct {
	status               int
	length               int64 // body bytes, -1 when chunked or ended by close
	chunked, keep        bool  // keep: the connection may carry another request
	clock, size, version int64
	meta                 bool
	errName              string
	body                 *body
}

// readResponse reads the head of the response to a request of method
// from h, keeping the status, h's framing and the wire headers the client
// reads. The framing is net/http's: a response to HEAD and a 1xx, 204 or
// 304 have no body, chunked overrides Content-Length, and a body with
// neither ends at close. A chunked body's trailer is left unread, so its
// connection is not kept. A head h or the status line (HTTP/1.1 only)
// refuses is an error wrapping ErrBadResponse; one cut short,
// io.ErrUnexpectedEOF.
func readResponse(h *wire.Head, method string) (response, error) {
	r := response{length: -1, clock: -1, size: -1, version: -1}
	line, err := h.Start()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	} else if err == nil && (len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' ||
		bytes.ContainsFunc(line[9:12], func(d rune) bool { return d < '0' || d > '9' })) {
		err = h.Malformed("status line", line)
	}
	if err != nil {
		return r, err
	}
	r.status, _ = strconv.Atoi(string(line[9:12]))
	for h.Next() {
		switch name, v := h.Name, h.Value; {
		case wire.Named(name, wire.HeaderClock) && h.First(1):
			r.clock = decimal(v)
		case wire.Named(name, wire.HeaderSize) && h.First(2):
			r.size = decimal(v)
		case wire.Named(name, wire.HeaderVersion) && h.First(4):
			r.version = decimal(v)
		case wire.Named(name, wire.HeaderMeta) && h.First(8):
			r.meta = string(v) == "1"
		case wire.Named(name, wire.HeaderError) && h.First(16):
			r.errName = string(v)
		}
	}
	r.chunked, r.keep = h.Chunked, !h.Close
	switch {
	case method == http.MethodHead || r.status/100 == 1 || r.status == 204 || r.status == 304:
		r.length, r.chunked = 0, false
	case r.chunked || h.Length < 0:
		r.keep = false
	default:
		r.length = h.Length
	}
	return r, h.Err
}

// decimal parses a wire header's number, -1 when it is none.
func decimal(v []byte) int64 {
	if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
		return n
	}
	return -1
}

// frame points b at r's body on br.
func (b *body) frame(br *bufio.Reader, r *response) {
	switch {
	case r.chunked:
		b.Reader = httputil.NewChunkedReader(br)
	case r.length >= 0:
		b.lr = io.LimitedReader{R: br, N: r.length}
		b.Reader = &b.lr
	default:
		b.Reader = br
	}
}

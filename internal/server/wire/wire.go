// Package wire defines the HTTP wire contract shared by the network
// blob service (internal/server) and its remote-store client
// (internal/client): header names, URL layout, the JSON bodies of the
// non-payload endpoints, and Head, the one HTTP/1.1 head scanner both
// read heads with (the MaxHead budget, the field rules and the framing
// fields). Keeping it in one place means the two sides cannot drift —
// both import these constants instead of spelling strings, and neither
// has a header-field loop of its own.
//
// The protocol is plain HTTP/1.1, one request per store operation and
// no handle state on the server:
//
//	GET    /v1/blobs/{key}          whole object (or Range: bytes=a-b)
//	HEAD   /v1/blobs/{key}          stat: size and version (or a reader's open)
//	PUT    /v1/blobs/{key}?mode=m   one-shot streaming put (create|replace)
//	DELETE /v1/blobs/{key}          delete
//	GET    /v1/keys                 key listing
//	GET    /v1/stats                store accounting + virtual clock
//	GET    /v1/layout               per-object physical runs + tags
//	GET    /metrics                 live wall-clock metrics (PhaseReport JSON)
//	GET    /report                  full RunReport JSON
//	GET    /healthz                 liveness
//
// A GET or HEAD that carries HeaderVersion is served only while that
// version is live, which is how a remote reader stays pinned to the
// version it opened. A HEAD that carries HeaderOpen opens that reader.
//
// Errors travel primarily by name: every failure response carries the
// sentinel's wire name (blob.ErrName) in HeaderError, and the HTTP
// status (blob.HTTPStatus) is the fallback for plain HTTP clients and
// header-stripping proxies. Every response — success or failure —
// carries the store's virtual clock in HeaderClock, which the client
// ratchets into its local clock so virtual-time costs survive the
// network hop.
package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/blob"
	"repro/internal/extent"
)

// Header names of the wire contract.
const (
	// HeaderSize carries an object's logical size in bytes: the full
	// object size on GET/HEAD responses (even ranged ones) and the
	// declared stream size on PUT requests without a usable
	// Content-Length.
	HeaderSize = "X-Blob-Size"

	// HeaderError carries the sentinel wire name (blob.ErrName) on every
	// failure response. The primary error carrier; the HTTP status is
	// the fallback.
	HeaderError = "X-Blob-Error"

	// HeaderClock carries the store's virtual clock (ns) at response
	// time. Clients ratchet it into their local vclock.Clock.
	HeaderClock = "X-Blob-Clock-Ns"

	// HeaderMeta set to "1" on a read response means the store runs in
	// metadata-only simulation: the logical bytes exist but no payload
	// travels (the body is empty and the client returns a nil slice).
	HeaderMeta = "X-Blob-Meta"

	// HeaderMetaBytes on a PUT request declares n logical bytes with no
	// payload (a metadata-only write: Writer.Append(n, nil) server-side).
	// Mutually exclusive with a request body: a PUT with both is refused
	// with ErrBadOption, a negative n with ErrInvalidSize.
	HeaderMetaBytes = "X-Blob-Meta-Bytes"

	// HeaderVersion carries an object's version (blob.Info.Version, in
	// decimal): on every HEAD response, and on a GET or HEAD request that
	// pins one. A pinned request for a version no longer live fails with
	// ErrNotFound; one that does not parse, with ErrBadOption. A pinned
	// request continues a reader opened earlier, so the store charges it
	// no open (blob.Resume).
	HeaderVersion = "X-Blob-Version"

	// HeaderOpen on a HEAD request marks a remote reader's open, which
	// costs what Store.Open does; the reader's pinned reads do not.
	HeaderOpen = "X-Blob-Open"
)

// Paths of the wire contract (PathBlobs is followed by a key).
const (
	PathBlobs  = "/v1/blobs/"
	PathKeys   = "/v1/keys"
	PathStats  = "/v1/stats"
	PathLayout = "/v1/layout"

	PathMetrics = "/metrics"
	PathReport  = "/report"
	PathHealthz = "/healthz"
)

// Write modes for the mode query parameter.
const (
	ModeCreate  = "create"
	ModeReplace = "replace"
)

// StatsResponse is the body of GET /v1/stats: the store's identity,
// one blob.Usage and its virtual clock. RetiredBytes over LiveBytes is
// the served store's storage age.
type StatsResponse struct {
	Name string `json:"name"`
	blob.Usage
	ClockNs int64 `json:"clock_ns"`
}

// KeysResponse is the body of GET /v1/keys.
type KeysResponse struct {
	Keys []string `json:"keys"`
}

// LayoutObject is one object in GET /v1/layout: its physical cluster
// runs and disk owner tag, the inputs of fragmentation analysis
// (frag.Source / frag.TagSource) serialized for a remote store.
type LayoutObject struct {
	Key   string       `json:"key"`
	Bytes int64        `json:"bytes"`
	Runs  []extent.Run `json:"runs"`
	Tag   uint32       `json:"tag"`
}

// maxSizedBody bounds the declared length ReadBody reads into a buffer
// of its own sizing, and firstBody the buffer it allocates before any
// byte has arrived.
const (
	maxSizedBody = 1 << 30
	firstBody    = 1 << 20
)

// ReadBody reads a payload body whose length the peer declared
// (Content-Length; negative when absent). A declared length up to
// firstBody gets a buffer of exactly that size, so the payload moves
// once, where io.ReadAll would grow one by doubling and copy it several
// times over. A longer declaration is believed only as far as bytes
// arrive: the buffer starts at firstBody and doubles, up to the declared
// size, each time it fills, so a peer that declares more than it sends
// costs memory for what it sent. An undeclared or implausibly large
// length falls back to io.ReadAll. A body shorter than declared is
// io.ErrUnexpectedEOF, or io.EOF if not one byte came.
func ReadBody(body io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxSizedBody {
		return io.ReadAll(body)
	}
	data := make([]byte, min(declared, firstBody))
	n := 0
	for {
		m, err := io.ReadFull(body, data[n:])
		if n += m; err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if int64(n) == declared {
			return data, nil
		}
		grown := make([]byte, min(2*int64(n), declared))
		copy(grown, data)
		data = grown
	}
}

// Named reports whether the header name or token b is h in any case. h
// is letters, digits and '-', and |0x20 pairs each such byte only with
// itself or its other case among the bytes that are no control
// character, which are all a parsed head line holds.
func Named(b []byte, h string) bool {
	if len(b) != len(h) {
		return false
	}
	for i := range b {
		if b[i]|0x20 != h[i]|0x20 {
			return false
		}
	}
	return true
}

// NotToken reports whether r may not be in a header name or a method
// (RFC 9110 tchar).
func NotToken(r rune) bool {
	return r >= 0x80 || !('a' <= r|0x20 && r|0x20 <= 'z' || '0' <= r && r <= '9' || strings.ContainsRune("!#$%&'*+-.^_`|~", r))
}

// isCTL reports whether r may not be in a header value: a control
// character other than tab.
func isCTL(r rune) bool { return r < 0x20 && r != '\t' || r == 0x7f }

// MaxHead is the most bytes a message head may take at either end: its
// start line and fields, then a chunked body's trailer on what is left.
const MaxHead = 64 << 10

// Head reads the HTTP/1.1 message heads of one connection from R with no
// header map: Start reads a head's start line, each Next a field, whose
// name must be a token and value hold no control character but tab. Next
// applies the framing fields itself, Content-Length (no leading zero, so
// equal values are equal text, as net/http compares repeats), chunked
// Transfer-Encoding once, and Connection, and stops at every other.
type Head struct {
	R             *bufio.Reader
	Bad, TooLarge error // Bad is wrapped by a malformed head's error; TooLarge refuses one past MaxHead bytes

	Length                    int64  // Content-Length; -1 when absent
	Chunked, Close, KeepAlive bool   // Transfer-Encoding: chunked; Connection's tokens
	Name, Value               []byte // the field Next stopped at; Value trimmed of blanks
	Err                       error  // what ended Next early; nil at the head's end

	left int    // what is left of the head's MaxHead bytes
	long []byte // a line longer than R's buffer
	seen uint   // First's bits
}

// Start begins the next head and returns its start line.
func (h *Head) Start() ([]byte, error) {
	h.Length, h.Chunked, h.Close, h.KeepAlive, h.Err, h.left, h.seen = -1, false, false, false, nil, MaxHead, 0
	return h.Line()
}

// Line reads one head line without its LF or CRLF and charges it to
// what is left of the head's MaxHead bytes. When the bytes end first it
// returns io.EOF before the head's first byte, io.ErrUnexpectedEOF after.
func (h *Head) Line() ([]byte, error) {
	line, err := h.R.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		h.long = append(h.long[:0], line...)
		for err == bufio.ErrBufferFull && len(h.long) <= h.left {
			line, err = h.R.ReadSlice('\n')
			h.long = append(h.long, line...)
		}
		line = h.long
	}
	if h.left -= len(line); h.left < 0 {
		return nil, h.TooLarge
	}
	switch {
	case err == nil:
		return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
	case err == io.EOF && h.left == MaxHead:
		return nil, io.EOF
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}

// Next reads fields up to one that is not a framing field and leaves it
// in Name and Value. It returns false at the head's end or on an error,
// which it leaves in Err.
func (h *Head) Next() bool {
	for h.Err == nil {
		line, err := h.Line()
		if h.Err = err; err != nil || len(line) == 0 {
			return false
		}
		i := bytes.IndexByte(line, ':')
		name, v := line[:max(i, 0)], bytes.Trim(line[i+1:], " \t")
		switch {
		case i <= 0 || bytes.ContainsFunc(name, NotToken) || bytes.ContainsFunc(line[i+1:], isCTL):
			h.Err = h.Malformed("header", line)
		case Named(name, "Content-Length"):
			n, err := strconv.ParseUint(string(v), 10, 63)
			if err != nil || len(v) > 1 && v[0] == '0' || h.Length >= 0 && int64(n) != h.Length {
				h.Err = h.Malformed("Content-Length", line)
			}
			h.Length = int64(n)
		case Named(name, "Transfer-Encoding"):
			if h.Chunked || !Named(v, "chunked") {
				h.Err = h.Malformed("Transfer-Encoding", line)
			}
			h.Chunked = true
		case Named(name, "Connection"):
			for tok := range bytes.SplitSeq(v, []byte(",")) {
				tok = bytes.Trim(tok, " \t")
				h.Close = h.Close || Named(tok, "close")
				h.KeepAlive = h.KeepAlive || Named(tok, "keep-alive")
			}
		default:
			h.Name, h.Value = name, v
			return true
		}
	}
	return false
}

// First reports whether this is the head's first field the caller marks
// with bit: of a repeated field the first counts, as with http.Header.Get.
func (h *Head) First(bit uint) bool {
	f := h.seen&bit == 0
	h.seen |= bit
	return f
}

// Malformed returns the error that refuses the head for what, quoting
// line.
func (h *Head) Malformed(what string, line []byte) error {
	return fmt.Errorf("%w: malformed %s %q", h.Bad, what, line[:min(len(line), 80)])
}

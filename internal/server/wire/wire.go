// Package wire defines the HTTP wire contract shared by the network
// blob service (internal/server) and its remote-store client
// (internal/client): header names, URL layout, and the JSON bodies of
// the non-payload endpoints. Keeping it in one place means the two
// sides cannot drift — both import these constants instead of
// spelling strings.
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
	"io"
	"strings"

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
	// Mutually exclusive with a request body.
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

// StatsResponse is the body of GET /v1/stats: the store's accounting
// surface plus its identity and virtual clock.
type StatsResponse struct {
	Name          string `json:"name"`
	ObjectCount   int    `json:"object_count"`
	LiveBytes     int64  `json:"live_bytes"`
	FreeBytes     int64  `json:"free_bytes"`
	CapacityBytes int64  `json:"capacity_bytes"`
	ClockNs       int64  `json:"clock_ns"`
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

// maxSizedBody bounds the buffer ReadBody allocates on a peer's say-so
// before any byte has arrived.
const maxSizedBody = 1 << 30

// ReadBody reads a payload body whose length the peer declared
// (Content-Length; negative when absent) into a buffer of exactly that
// size, where io.ReadAll would grow one by doubling and copy the
// payload several times over. An undeclared or implausibly large length
// falls back to io.ReadAll, which allocates only as bytes arrive.
func ReadBody(body io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxSizedBody {
		return io.ReadAll(body)
	}
	data := make([]byte, declared)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, err
	}
	return data, nil
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

// IsCTL reports whether r may not be in a header value: a control
// character other than tab.
func IsCTL(r rune) bool { return r < 0x20 && r != '\t' || r == 0x7f }

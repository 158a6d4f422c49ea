// Package client implements blob.Store over the network blob
// service's wire protocol (internal/server, internal/server/wire): a
// remote store that is contract-identical to a local one. The store
// contract (internal/blob/conformance) runs end-to-end through a real
// listener — version-pinned readers, exclusive writers, streaming
// appends, typed sentinels, and context deadlines all survive the hop,
// though every operation is one plain request and the server holds no
// state for a handle.
//
// Four mechanisms carry the contract across:
//
//   - Errors travel by name. Every failure response names its sentinel
//     (wire.HeaderError); the client resolves it with blob.Sentinel and
//     wraps, so errors.Is dispatch works on a remote store exactly as
//     on a local one. The HTTP status is the fallback for responses
//     from header-stripping middle boxes.
//
//   - Virtual time travels by ratchet. Every response carries the
//     server store's vclock (wire.HeaderClock); the client advances a
//     local clock monotonically to match, so virtual-cost assertions
//     (ranged reads cheaper than full reads, ...) hold against the
//     client's own Clock().
//
//   - Handles travel by version. Open is one HEAD that learns the live
//     version (blob.Info.Version) and costs the store one Open; the
//     reader's every GET names the version (wire.HeaderVersion), costs
//     only its read, and is answered ErrNotFound once the version is no
//     longer live. A remote reader thus charges the virtual clock what
//     a local one does. A writer runs the blob.StreamState ladder
//     locally — the one backend writers use, so closed-handle,
//     cancellation and size-precedence semantics match — and is one PUT
//     at Commit. Until then it holds every appended byte in client
//     memory: a streamed payload write needs as much client RAM as the
//     object is large (a metadata-only stream keeps only a count), and
//     lands on the server as a whole-buffer write would.
//
//   - Requests travel on the caller's goroutine, one keep-alive HTTP/1.1
//     connection per request in flight, and the client writes and parses
//     the HTTP/1.1 heads itself. A request is one writev: a head appended
//     into the connection's scratch buffer, then the caller's payload. A
//     response head is read by wire.Head, the server's scanner, for its
//     status, framing and X-Blob-* headers, with no header map. net/http
//     is the test reference for both: request heads must parse as the
//     ones Request.Write sends, and a fuzz test holds the response
//     parser to http.ReadResponse. The whole body is written
//     before the response is read, and closing the response body returns
//     the connection to the Store's idle list. A failure on a reused
//     connection is retried once on a fresh one only where that cannot
//     apply the request twice. A canceled context sets a past deadline on
//     the connection, which is then closed.
//
// Writer exclusivity has two scopes. Within one Store, a key with an
// open writer refuses a second with ErrBusy, as a local store does.
// Across Stores it is the PUT's: the server locks a key only while a
// PUT is applied, so no remote caller — and no crashed one — can hold a
// key between requests. A Create that found the key free can therefore
// still fail with ErrAlreadyExists at Commit if another client created
// it meanwhile; the writer then stays open and abortable, as after any
// failed Commit.
package client

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/server/wire"
	"repro/internal/vclock"
)

// Store is a blob.Store backed by a remote network blob service.
// Safe for concurrent use. Close releases idle connections.
type Store struct {
	addr    string // host:port to dial
	name    string
	clock   *vclock.Clock
	mu      sync.Mutex      // serializes clock ratcheting (advance-by-delta must not interleave) and guards writing, idle and closed
	writing map[string]bool // keys with an open writer on this Store
	idle    []*conn         // keep-alive connections no request holds
	closed  bool            // Close was called: connections are not kept
}

// Dial connects to a network blob service and verifies it is alive
// (one stats round trip, which also seeds the local virtual clock and
// the store's reported name). The wire is plain HTTP/1.1 and every
// request path is the wire's own, so baseURL must be http://host[:port]
// with at most a "/" after it; anything else is blob.ErrBadOption.
func Dial(baseURL string) (*Store, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil ||
		u.Path != "" && u.Path != "/" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return nil, fmt.Errorf("client: dial %s: %w: want an http://host[:port] base URL", baseURL, blob.ErrBadOption)
	}
	if u.Port() == "" {
		u.Host += ":80"
	}
	s := &Store{
		addr:    u.Host,
		clock:   vclock.New(),
		writing: make(map[string]bool),
	}
	var st wire.StatsResponse
	if err := s.doJSON(context.Background(), wire.PathStats, maxStatsBody, &st); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", baseURL, err)
	}
	s.name = st.Name
	return s, nil
}

// Close closes the idle connections. The Store stays usable, but from
// now on closes each connection when its request is done.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.idle {
		c.Close()
	}
	s.idle, s.closed = nil, true
	return nil
}

// ratchet advances the local clock to the server clock ns carried by a
// response (-1 when it carried none), never backwards — concurrent
// responses may arrive out of order, and virtual time is monotonic.
func (s *Store) ratchet(ns int64) {
	s.mu.Lock()
	if d := ns - s.clock.Now(); d > 0 {
		s.clock.Advance(d)
	}
	s.mu.Unlock()
}

// conn is one keep-alive connection, held by one request at a time.
type conn struct {
	net.Conn
	in   wire.Head   // reads response heads off the connection, through in.R
	peek peeker      // idleOK's
	head []byte      // the request head, rewritten by each request
	vec  [2][]byte   // head and payload of the request being sent
	bufs net.Buffers // vec, consumed as it is written
}

// conn returns an idle connection the server has not dropped (reused),
// or, with fresh set or none idle, a newly dialed one.
func (s *Store) conn(ctx context.Context, fresh bool) (c *conn, reused bool, err error) {
	s.mu.Lock()
	for n := len(s.idle); !fresh && n > 0; n-- {
		c, s.idle = s.idle[n-1], s.idle[:n-1]
		if c.idleOK() {
			s.mu.Unlock()
			return c, true, nil
		}
		c.Close()
	}
	s.mu.Unlock()
	nc, err := new(net.Dialer).DialContext(ctx, "tcp", s.addr)
	if err != nil {
		return nil, false, err
	}
	return &conn{Conn: nc, in: wire.Head{R: bufio.NewReader(nc), Bad: ErrBadResponse, TooLarge: errHeadTooLarge}}, false, nil
}

// roundTrip sends one request with payload as its body, then reads the
// response head. A failure on a reused connection is retried once on a
// fresh one if nothing was written, or for a GET or HEAD if no response
// byte arrived. A server may answer before it has read the whole body (a
// create of an existing key): that answer is read once the write fails,
// and the connection is not kept.
func (s *Store) roundTrip(ctx context.Context, method, path string, payload []byte, hdr []string) (response, error) {
	for fresh := false; ; fresh = true {
		c, reused, err := s.conn(ctx, fresh)
		if err != nil {
			return response{}, err
		}
		stop := func() bool { return true }
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
		}
		sent, werr := c.send(method, s.addr, path, payload, hdr)
		_, perr := c.in.R.Peek(1) // nil once a response byte arrived
		resp, err := readResponse(&c.in, method)
		if err == nil {
			resp.body = &body{s: s, c: c, stop: stop, keep: werr == nil && resp.keep}
			resp.body.frame(c.in.R, &resp)
			return resp, nil
		}
		stop()
		c.Close()
		if fresh || !reused || ctx.Err() != nil ||
			sent > 0 && (perr == nil || method != http.MethodGet && method != http.MethodHead) {
			return response{}, cmp.Or(werr, err)
		}
	}
}

// body is a response body whose Close keeps its connection for the
// Store's next request if the body ends within 256 KB more (net/http's
// server bounds its drain of an unread request body so) and not short of
// its declared length, the context did not fire, and the Store is not
// closed.
type body struct {
	io.Reader
	lr   io.LimitedReader // the Reader of a body of declared length
	s    *Store
	c    *conn       // nil once closed
	stop func() bool // unregisters the cancellation hook: false if it fired
	keep bool        // the exchange left the connection reusable
}

func (b *body) Close() error {
	c, s := b.c, b.s
	if c == nil {
		return nil
	}
	b.c = nil
	err := io.EOF // a declared length read to its end
	if b.Reader != &b.lr || b.lr.N > 0 {
		_, err = io.CopyN(io.Discard, b, 256<<10+1)
	}
	s.mu.Lock()
	keep := b.stop() && b.keep && err == io.EOF && b.lr.N == 0 && c.in.R.Buffered() == 0 && !s.closed
	if keep {
		s.idle = append(s.idle, c)
	}
	s.mu.Unlock()
	if !keep {
		c.Close()
	}
	return nil
}

// do performs one wire call: context pre-check, request, clock
// ratchet, and typed error mapping. hdr is request headers as name,
// value pairs. payload, when not empty, is sent as the request body
// without being copied and is not referenced after do returns. On
// success the caller owns the response body and must Close it. On
// failure the sentinel named by the response (or mapped from its status)
// is wrapped into the returned error.
func (s *Store) do(ctx context.Context, method, path string, payload []byte, hdr ...string) (response, error) {
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	resp, err := s.roundTrip(ctx, method, path, payload, hdr)
	if err != nil {
		// Prefer the bare context error so messages match local-store
		// behavior.
		if cerr := ctx.Err(); cerr != nil {
			return response{}, cerr
		}
		return response{}, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	s.ratchet(resp.clock)
	if resp.status >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.body, 512))
		resp.body.Close()
		sentinel := blob.Sentinel(resp.errName)
		if sentinel == nil {
			sentinel = blob.StatusSentinel(resp.status)
		}
		if sentinel == nil {
			return response{}, fmt.Errorf("client: %s %s: http %d: %s",
				method, path, resp.status, strings.TrimSpace(string(msg)))
		}
		return response{}, fmt.Errorf("%w (remote: %s)", sentinel, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// Bounds on the JSON bodies the client reads. A /v1/stats body takes a
// few hundred bytes. /v1/keys and /v1/layout grow with the store: about
// 80 B of layout per object × the 1M 4 KB objects of fragserve's
// default 4G volume = 80 MB, bounded with about 3x headroom.
const (
	maxStatsBody   = 64 << 10
	maxListingBody = 256 << 20
)

// doJSON GETs path and decodes its JSON success body into v. A body
// over limit bytes, or one that does not decode, is an error wrapping
// ErrBadResponse.
func (s *Store) doJSON(ctx context.Context, path string, limit int64, v any) error {
	resp, err := s.do(ctx, "GET", path, nil)
	if err != nil {
		return err
	}
	defer resp.body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.body, limit+1))
	switch {
	case err != nil:
		return fmt.Errorf("client: GET %s: %w", path, err)
	case int64(len(data)) > limit:
		return fmt.Errorf("client: GET %s: %w: body over %d bytes", path, ErrBadResponse, limit)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("client: GET %s: %w: %v", path, ErrBadResponse, err)
	}
	return nil
}

// --- blob.Store ------------------------------------------------------

// Name reports the remote store's own name, so reports and logs label
// a served filesystem store exactly like a local one.
func (s *Store) Name() string { return s.name }

// Clock returns the client's mirror of the server store's virtual
// clock (ratcheted from response headers).
func (s *Store) Clock() *vclock.Clock { return s.clock }

// Open pins the object's live version with one HEAD, which costs the
// store what a local Open does. The reader's reads name that version,
// so they fail with ErrNotFound once it is replaced or deleted, as a
// local reader's do, and cost only what the read does.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	info, err := s.head(ctx, key, wire.HeaderOpen, "1")
	if err != nil {
		return nil, err
	}
	return &reader{s: s, ctx: ctx, key: key, size: info.Size, version: strconv.FormatUint(info.Version, 10)}, nil
}

// Create starts a streaming write of a new object. One HEAD refuses an
// existing key up front; the write itself is one PUT at Commit.
func (s *Store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, false)
}

// Replace starts a streaming safe replace, sent as one PUT at Commit.
func (s *Store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, true)
}

func (s *Store) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: write of %d bytes to %s", blob.ErrInvalidSize, size, key)
	}
	s.mu.Lock()
	busy := s.writing[key]
	s.writing[key] = true
	s.mu.Unlock()
	if busy {
		return nil, fmt.Errorf("%w: %s", blob.ErrBusy, key)
	}
	if !replace {
		_, err := s.Stat(ctx, key)
		if err == nil {
			err = fmt.Errorf("%w: %s", blob.ErrAlreadyExists, key)
		}
		if !errors.Is(err, blob.ErrNotFound) {
			s.doneWriting(key)
			return nil, err
		}
	}
	return &writer{s: s, ctx: ctx, key: key, size: size, replace: replace, st: blob.NewStreamState(key, size)}, nil
}

// doneWriting frees key for this Store's next writer.
func (s *Store) doneWriting(key string) {
	s.mu.Lock()
	delete(s.writing, key)
	s.mu.Unlock()
}

// Delete removes an object.
func (s *Store) Delete(ctx context.Context, key string) error {
	resp, err := s.do(ctx, "DELETE", wire.PathBlobs+escape(key), nil)
	if err != nil {
		return err
	}
	resp.body.Close()
	return nil
}

// Stat returns object metadata (one HEAD round trip).
func (s *Store) Stat(ctx context.Context, key string) (blob.Info, error) {
	return s.head(ctx, key)
}

// head stats key in one HEAD; hdr (name, value pairs) may pin a version
// or mark a reader's open.
func (s *Store) head(ctx context.Context, key string, hdr ...string) (blob.Info, error) {
	resp, err := s.do(ctx, "HEAD", wire.PathBlobs+escape(key), nil, hdr...)
	if err != nil {
		return blob.Info{}, err
	}
	resp.body.Close()
	if resp.size < 0 || resp.version < 0 {
		return blob.Info{}, fmt.Errorf("client: stat %s: %w: no %s or %s", key, ErrBadResponse, wire.HeaderSize, wire.HeaderVersion)
	}
	return blob.Info{Key: key, Size: resp.size, Version: uint64(resp.version)}, nil
}

// Keys lists live objects. The blob.Store accounting surface has no
// context or error channel; a network failure reports an empty
// listing.
func (s *Store) Keys() []string {
	var kr wire.KeysResponse
	if err := s.doJSON(context.Background(), wire.PathKeys, maxListingBody, &kr); err != nil {
		return nil
	}
	return kr.Keys
}

// Usage implements blob.Store: one stats round trip, so every count is
// the server's reading at one moment. A network failure reports zeros.
func (s *Store) Usage() blob.Usage {
	var st wire.StatsResponse
	if s.doJSON(context.Background(), wire.PathStats, maxStatsBody, &st) != nil {
		return blob.Usage{}
	}
	return st.Usage
}

// ObjectCount implements blob.Store, kept only because bench/ calls it (until J).
func (s *Store) ObjectCount() int { return s.Usage().Objects }

// LiveBytes implements blob.Store, kept only because bench/ calls it (until J).
func (s *Store) LiveBytes() int64 { return s.Usage().LiveBytes }

// EachObjectRuns implements frag.Source over the layout endpoint, so
// fragmentation analysis runs against a served store.
func (s *Store) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	for _, o := range s.layout() {
		fn(o.Key, o.Bytes, o.Runs)
	}
}

// EachObjectTag implements frag.TagSource over the layout endpoint.
func (s *Store) EachObjectTag(fn func(key string, tag uint32)) {
	for _, o := range s.layout() {
		fn(o.Key, o.Tag)
	}
}

func (s *Store) layout() []wire.LayoutObject {
	var objs []wire.LayoutObject
	if err := s.doJSON(context.Background(), wire.PathLayout, maxListingBody, &objs); err != nil {
		return nil
	}
	return objs
}

var _ blob.Store = (*Store)(nil)

// --- one-shot fast paths ---------------------------------------------

// Fetch reads a whole object in one GET round trip, with no HEAD to
// open it first — the bench's served read path. Returns the object's size and, when the store
// retains payloads, its bytes.
func (s *Store) Fetch(ctx context.Context, key string) (int64, []byte, error) {
	return s.get(ctx, key)
}

// FetchAt reads one byte range in one round trip via an HTTP Range
// GET, riding the server's blob.Reader.ReadAt. A range that ends past
// the object is ErrOutOfRange, as a local ReadAt's is.
func (s *Store) FetchAt(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || length > math.MaxInt64-off {
		return nil, fmt.Errorf("%w: range [%d, +%d)", blob.ErrOutOfRange, off, length)
	}
	return s.getRange(ctx, key, off, length)
}

// get performs one GET of key with the request headers hdr (name, value
// pairs) and returns the object's size and the body, nil when the store
// keeps no payload.
func (s *Store) get(ctx context.Context, key string, hdr ...string) (int64, []byte, error) {
	resp, err := s.do(ctx, "GET", wire.PathBlobs+escape(key), nil, hdr...)
	if err != nil {
		return 0, nil, err
	}
	defer resp.body.Close()
	if resp.size < 0 {
		return 0, nil, fmt.Errorf("client: get %s: %w: no %s", key, ErrBadResponse, wire.HeaderSize)
	}
	if resp.meta {
		return resp.size, nil, nil
	}
	data, err := wire.ReadBody(resp.body, resp.length)
	if err != nil {
		return 0, nil, cmp.Or(ctx.Err(), fmt.Errorf("client: get %s: %w", key, err))
	}
	return resp.size, data, nil
}

// getRange reads [off, off+length) of key; hdr may pin a version. HTTP
// has no empty byte range, so a zero-length read is a HEAD and a bounds
// check with a nil result.
func (s *Store) getRange(ctx context.Context, key string, off, length int64, hdr ...string) ([]byte, error) {
	if length == 0 {
		info, err := s.head(ctx, key, hdr...)
		if err != nil {
			return nil, err
		}
		if off > info.Size {
			return nil, fmt.Errorf("%w: offset %d of %d-byte object", blob.ErrOutOfRange, off, info.Size)
		}
		return nil, nil
	}
	hdr = append(hdr, "Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	size, data, err := s.get(ctx, key, hdr...)
	if err == nil && off+length > size {
		// The server clamps a range that ends past the object (RFC 9110).
		return nil, fmt.Errorf("%w: [%d, +%d) of %d-byte object", blob.ErrOutOfRange, off, length, size)
	}
	return data, err
}

// Upload writes a whole object in one PUT round trip — a writer's
// Commit, and the bench's served write path. data nil performs a
// metadata-only write of size logical bytes. replace selects
// safe-replace semantics; otherwise create.
func (s *Store) Upload(ctx context.Context, key string, size int64, data []byte, replace bool) error {
	mode := wire.ModeCreate
	if replace {
		mode = wire.ModeReplace
	}
	path := wire.PathBlobs + escape(key) + "?mode=" + mode
	sizeHdr := wire.HeaderSize
	if data == nil {
		sizeHdr = wire.HeaderMetaBytes
	}
	resp, err := s.do(ctx, "PUT", path, data, sizeHdr, strconv.FormatInt(size, 10))
	if err != nil {
		return err
	}
	resp.body.Close()
	return nil
}

// escape makes a key safe as a URL path suffix while keeping slashes
// (the server route uses a trailing wildcard).
func escape(key string) string {
	seg, rest, more := strings.Cut(key, "/")
	if !more {
		return url.PathEscape(seg)
	}
	return url.PathEscape(seg) + "/" + escape(rest)
}

// --- reader ----------------------------------------------------------

// reader is a handle pinned to one version of an object. It holds no
// server state: the closed flag and context are enforced locally
// (matching local reader semantics and saving a doomed round trip), and
// every read names the version, which the server serves only while it
// is live.
type reader struct {
	s       *Store
	ctx     context.Context
	key     string
	size    int64
	version string // the pinned blob.Info.Version, as wire.HeaderVersion carries it
	closed  atomic.Bool
}

// Size implements blob.Reader.
func (r *reader) Size() int64 { return r.size }

func (r *reader) check() error {
	if r.closed.Load() {
		return fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	return r.ctx.Err()
}

// ReadAll implements blob.Reader: one pinned GET.
func (r *reader) ReadAll() ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	_, data, err := r.s.get(r.ctx, r.key, wire.HeaderVersion, r.version)
	return data, err
}

// ReadAt implements blob.Reader: one pinned Range GET. Bounds are
// checked locally (overflow-safe), matching backend reader behavior
// exactly.
func (r *reader) ReadAt(off, length int64) ([]byte, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	if off < 0 || length < 0 || off > r.size || length > r.size-off {
		return nil, fmt.Errorf("%w: [%d, +%d) of %d-byte object", blob.ErrOutOfRange, off, length, r.size)
	}
	return r.s.getRange(r.ctx, r.key, off, length, wire.HeaderVersion, r.version)
}

// Close implements blob.Reader: idempotent and local.
func (r *reader) Close() error {
	r.closed.Store(true)
	return nil
}

// --- writer ----------------------------------------------------------

// writer is a streaming write held on the client until Commit. The full
// local validation ladder (blob.StreamState — the same one backend
// writers run) guards every call, so closed/canceled/size-precedence
// semantics match a local writer without a round trip; the bytes that
// pass it are copied into buf, and Commit sends them as one PUT.
type writer struct {
	s       *Store
	ctx     context.Context
	key     string
	size    int64
	replace bool
	st      blob.StreamState
	buf     []byte // payload appended so far; a metadata-only stream keeps none
}

// Append implements blob.Writer. It copies data, which is the caller's
// again on return.
func (w *writer) Append(n int64, data []byte) error {
	if err := w.st.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	if data != nil {
		w.buf = append(w.buf, data...)
	}
	w.st.NoteAppended(n)
	return nil
}

// Write implements io.Writer over Append.
func (w *writer) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Commit implements blob.Writer: one PUT of the whole stream. A commit
// the local ladder refuses (short stream) never reaches the wire; a
// commit the server refuses leaves the writer open and abortable,
// exactly like a local writer.
func (w *writer) Commit() error {
	if err := w.st.BeginCommit(w.ctx); err != nil {
		return err
	}
	if err := w.s.Upload(w.ctx, w.key, w.size, w.buf, w.replace); err != nil {
		return err
	}
	w.close()
	return nil
}

// Abort implements blob.Writer: idempotent and local, since nothing
// reached the server.
func (w *writer) Abort() error {
	if !w.st.Closed() {
		w.close()
	}
	return nil
}

func (w *writer) close() {
	w.st.Close()
	w.buf = nil
	w.s.doneWriting(w.key)
}

// Package server is the network front-end of the blob store: an
// HTTP/1.1 service exposing any blob.Store stack (core, shard, cache,
// group-commit, obs — the server is agnostic) to remote clients.
//
// The request path is client → admission control → handler → store:
// every store-touching request first passes the bounded
// in-flight/queue admission controller (admission.go), runs under a
// per-request context deadline, and records its wall-clock latency
// into the server's own UnitWall obs.Registry — the tail-latency SLO
// view, served on /metrics and /report through the same
// histogram/report pipeline the simulation uses for virtual time (the
// time_unit tag keeps the two apart). Recording is always on.
//
// Every operation is one request (GET/HEAD/PUT/DELETE on /v1/blobs/)
// mapped to one whole store operation; the server holds no handle
// between requests. Remote handles travel by version instead: HEAD
// reports an object's version (blob.Info.Version) and a GET or HEAD
// that names one is served only while it is live, so a remote reader
// stays pinned to the version it opened, and a remote writer is one PUT
// at Commit (the store contract passes end-to-end over a live
// listener: internal/stack's client rows). A remote reader costs
// the store what a local one does: its opening HEAD pays for an Open,
// and each pinned read re-opens under blob.Resume and pays only for the
// read.
//
// There are two front doors onto one set of handlers. Serve (conn.go)
// is the one fragserve ships: it speaks HTTP/1.1 itself, one goroutine
// per connection, parsing each request head for the fields the routes
// read (no header map) and sending each response head and body in one
// writev. ServeHTTP mounts the same handlers as an http.Handler; it is
// the test reference the differential tests hold Serve to. A handler
// takes a parsed request and fills a response, so neither door has a
// code path of its own for any operation.
//
// Every response carries the store's virtual clock in a header;
// clients ratchet it into a local clock so virtual-time accounting
// (the simulation's cost model) survives the network hop. Errors
// travel by sentinel name plus mapped HTTP status (blob/httpmap.go).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Config tunes one Server's admission control and request deadline.
// Metrics are not a setting: every Server records into a wall-unit
// registry of its own, served on /metrics and /report.
type Config struct {
	// MaxInFlight bounds concurrently executing store operations.
	// Zero or negative takes DefaultMaxInFlight.
	MaxInFlight int

	// MaxQueue bounds operations waiting for an in-flight slot; an
	// arrival beyond MaxInFlight+MaxQueue is shed with ErrOverloaded
	// (429). Negative means zero (no queue: at the limit, shed).
	MaxQueue int

	// QueueTimeout bounds how long an admitted operation may wait for a
	// slot before being refused with ErrUnavailable (503). Zero waits
	// as long as the request's own context allows.
	QueueTimeout time.Duration

	// RequestTimeout is the per-request context deadline applied to
	// every store-touching request. Zero applies none.
	RequestTimeout time.Duration
}

// DefaultMaxInFlight is the in-flight limit a zero Config.MaxInFlight
// takes.
const DefaultMaxInFlight = 256

// Server serves one blob.Store over HTTP/1.1. Create with New, then
// either Serve a listener (and Shutdown when done) or mount it as an
// http.Handler. It holds no store handle between requests, only its
// metrics; the wrapped store's lifecycle belongs to the caller.
type Server struct {
	store blob.Store
	cfg   Config
	reg   *obs.Registry          // wall-unit: every serve.* and admission.* metric
	lat   [numOps]*obs.Histogram // serve.<op>, resolved once
	adm   *admission

	closing atomic.Bool // Shutdown was called
	mu      sync.Mutex  // guards lns and conns
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
}

// New builds a Server over store, recording into a wall-unit registry
// of its own. It never fails; the error result stays only because the
// bench module, edited once per re-baseline, takes it.
func New(store blob.Store, cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	cfg.MaxQueue = max(cfg.MaxQueue, 0)
	reg := obs.NewWallRegistry()
	s := &Server{
		store: store,
		cfg:   cfg,
		reg:   reg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout, reg),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*conn]struct{}),
	}
	for o, name := range opNames {
		s.lat[o] = reg.Histogram("serve." + name)
	}
	return s, nil
}

// op is a store-touching route, timed into serve.<name>.
type op int

const (
	opGet op = iota
	opHead
	opPut
	opDelete
	opKeys
	opStats
	opLayout
	numOps
)

var opNames = [numOps]string{"get", "head", "put", "delete", "keys", "stats", "layout"}

// request is one parsed request: what the routes read, with no header
// map. A wire header that was absent is "".
type request struct {
	method, path, mode string // path unescaped, mode the first mode query value
	key                string // path after wire.PathBlobs
	rng, version       string // Range, wire.HeaderVersion
	open               bool   // wire.HeaderOpen is set
	metaBytes, size    string // wire.HeaderMetaBytes, wire.HeaderSize
	length             int64  // declared body length; -1 when chunked
	chunked            bool   // Transfer-Encoding: chunked
	body               io.Reader
	ctx                context.Context
	c                  *conn // Serve's connection; nil under ServeHTTP

	// Serve's head parser only.
	close, http10 bool // close: no request may follow on the connection
	expect        bool // Expect: 100-continue
}

// response is what a handler fills and a front door sends. A wire
// number is sent only when it is not -1.
type response struct {
	status        int
	contentType   string
	contentRange  string
	errName       string
	clock         int64
	size, version int64
	meta          bool
	body          []byte
}

const textPlain = "text/plain; charset=utf-8"

func (w *response) reset() {
	*w = response{status: http.StatusOK, clock: -1, size: -1, version: -1}
}

// text renders a plain-text body.
func (w *response) text(status int, msg string) {
	w.status, w.contentType, w.body = status, textPlain, []byte(msg)
}

// appendHeader appends the response's header fields, each led by CRLF.
// A body is declared unless a HEAD response has none: the response to a
// HEAD declares the body a GET would have had, as net/http's does.
func (w *response) appendHeader(b []byte, head bool) []byte {
	field := func(b []byte, name string) []byte { return append(append(append(b, "\r\n"...), name...), ": "...) }
	if w.contentType != "" {
		b = append(field(b, "Content-Type"), w.contentType...)
	}
	if w.contentRange != "" {
		b = append(field(b, "Content-Range"), w.contentRange...)
	}
	if len(w.body) > 0 || !head {
		b = strconv.AppendInt(field(b, "Content-Length"), int64(len(w.body)), 10)
	}
	if w.clock >= 0 {
		b = strconv.AppendInt(field(b, wire.HeaderClock), w.clock, 10)
	}
	if w.size >= 0 {
		b = strconv.AppendInt(field(b, wire.HeaderSize), w.size, 10)
	}
	if w.version >= 0 {
		b = strconv.AppendInt(field(b, wire.HeaderVersion), w.version, 10)
	}
	if w.meta {
		b = append(field(b, wire.HeaderMeta), '1')
	}
	if w.errName != "" {
		b = append(field(b, wire.HeaderError), w.errName...)
	}
	return b
}

// ServeHTTP implements http.Handler over the same handlers Serve runs.
func (s *Server) ServeHTTP(hw http.ResponseWriter, hr *http.Request) {
	h := hr.Header
	r := request{
		method: hr.Method, path: hr.URL.Path, mode: queryValue(hr.URL.RawQuery, "mode"),
		rng: h.Get("Range"), version: h.Get(wire.HeaderVersion), open: h.Get(wire.HeaderOpen) != "",
		metaBytes: h.Get(wire.HeaderMetaBytes), size: h.Get(wire.HeaderSize),
		length: hr.ContentLength, chunked: len(hr.TransferEncoding) > 0, body: hr.Body, ctx: hr.Context(),
	}
	var w response
	s.serve(&r, &w)
	out := hw.Header()
	for _, f := range strings.Split(string(w.appendHeader(nil, r.method == http.MethodHead)), "\r\n")[1:] {
		name, value, _ := strings.Cut(f, ": ")
		out.Set(name, value)
	}
	hw.WriteHeader(w.status)
	hw.Write(w.body)
}

// Close does nothing: the server holds nothing to release. It stays
// only because the bench module, edited once per re-baseline, calls it.
// A served listener ends with Shutdown.
func (s *Server) Close() error { return nil }

// serve routes one request by method and path prefix and fills w.
// Every store-touching route runs through op for deadline, admission
// and metrics; the introspection routes bypass admission so a saturated
// service can still be observed. Their GET routes answer HEAD too.
func (s *Server) serve(r *request, w *response) {
	w.reset()
	route, method := r.path, r.method
	if key, ok := strings.CutPrefix(r.path, wire.PathBlobs); ok {
		r.key, route = key, wire.PathBlobs
	} else if method == http.MethodHead {
		method = http.MethodGet
	}
	switch method + " " + route {
	case "GET " + wire.PathBlobs:
		s.op(opGet, s.handleGet, r, w)
	case "HEAD " + wire.PathBlobs:
		s.op(opHead, s.handleHead, r, w)
	case "PUT " + wire.PathBlobs:
		s.op(opPut, s.handlePut, r, w)
	case "DELETE " + wire.PathBlobs:
		s.op(opDelete, s.handleDelete, r, w)
	case "GET " + wire.PathKeys:
		s.op(opKeys, s.handleKeys, r, w)
	case "GET " + wire.PathStats:
		s.op(opStats, s.handleStats, r, w)
	case "GET " + wire.PathLayout:
		s.op(opLayout, s.handleLayout, r, w)
	case "GET " + wire.PathMetrics:
		s.handleMetrics(w)
	case "GET " + wire.PathReport:
		s.handleReport(w)
	case "GET " + wire.PathHealthz:
		w.clock = s.store.Clock().Now()
		w.text(http.StatusOK, "ok\n")
	default:
		w.text(http.StatusNotFound, "404 page not found\n")
	}
}

// op wraps a handler with the request path's cross-cutting layers:
// the request context (deadline, and under Serve the client's hang-up),
// admission control, wall-latency recording, and typed error rendering.
func (s *Server) op(o op, fn func(*request, *response) error, r *request, w *response) {
	start := obs.WallNow()
	if s.cfg.RequestTimeout > 0 || r.c != nil {
		ctx := &reqCtx{Context: r.ctx, c: r.c, start: start}
		if s.cfg.RequestTimeout > 0 {
			ctx.deadline = start + s.cfg.RequestTimeout.Nanoseconds()
		}
		defer ctx.release()
		r.ctx = ctx
		if r.c != nil {
			r.c.cur = ctx
		}
	}
	err := func() error {
		if err := s.adm.acquire(r.ctx); err != nil {
			return err
		}
		defer s.adm.release()
		return fn(r, w)
	}()
	if err != nil {
		s.fail(w, opNames[o], err)
		return
	}
	s.lat[o].Observe(obs.WallNow() - start)
}

// reqCtx is a request's context: the front door's own plus a deadline
// (RequestTimeout, when set) that costs a clock read per Err and arms a
// timer only at the first Done (a queued admission, a context.With*
// child, a store that blocks). Err and Value then answer from the timer
// context, so a child's cancel propagation finds it without starting a
// goroutine. Under Serve it also ends when the client hangs up, which
// only a read on the connection can tell: the first Done, or an Err once
// the request has run watchAfter, starts that read (conn.watch).
type reqCtx struct {
	context.Context       // the front door's own
	deadline        int64 // obs.WallNow() units; 0 when none
	start           int64 // obs.WallNow() at arrival
	c               *conn // Serve's connection; nil under ServeHTTP
	armed           atomic.Pointer[armedCtx]
}

// watchAfter is how long a request polling Err runs before its
// connection is watched for a hang-up: most requests end sooner and
// never pay for the read.
const watchAfter = int64(time.Millisecond)

type armedCtx struct {
	context.Context
	cancel context.CancelFunc
}

func (c *reqCtx) Deadline() (time.Time, bool) {
	if c.deadline == 0 {
		return c.Context.Deadline()
	}
	return time.Unix(0, c.deadline), true
}

func (c *reqCtx) Err() error {
	if a := c.armed.Load(); a != nil {
		return a.Err()
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	now := obs.WallNow()
	if c.c != nil {
		if c.c.hungUp.Load() {
			return context.Canceled
		}
		if now-c.start >= watchAfter {
			c.c.watch()
		}
	}
	if c.deadline != 0 && now >= c.deadline {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *reqCtx) Done() <-chan struct{} {
	a := c.armed.Load()
	if a == nil {
		var ctx context.Context
		var cancel context.CancelFunc
		if c.deadline != 0 {
			ctx, cancel = context.WithDeadline(c.Context, time.Unix(0, c.deadline))
		} else {
			ctx, cancel = context.WithCancel(c.Context)
		}
		if a = (&armedCtx{ctx, cancel}); !c.armed.CompareAndSwap(nil, a) {
			cancel() // another goroutine armed first
			a = c.armed.Load()
		} else if c.c != nil {
			// The watcher cancels what is armed once it sees a hang-up;
			// one it saw before this was armed shows in hungUp.
			c.c.watch()
			if c.c.hungUp.Load() {
				cancel()
			}
		}
	}
	return a.Done()
}

func (c *reqCtx) Value(key any) any {
	if a := c.armed.Load(); a != nil {
		return a.Value(key)
	}
	return c.Context.Value(key)
}

func (c *reqCtx) release() {
	if a := c.armed.Load(); a != nil {
		a.cancel()
	}
}

// fail renders a typed failure: sentinel name in the error header,
// mapped HTTP status, message body; plus an error counter.
func (s *Server) fail(w *response, opName string, err error) {
	name := blob.ErrName(err)
	s.reg.Counter("serve." + opName + ".err." + name).Inc()
	w.reset()
	w.errName, w.clock = name, s.store.Clock().Now()
	w.text(blob.HTTPStatus(err), err.Error()+"\n")
}

// writeJSON renders a success JSON body.
func (s *Server) writeJSON(w *response, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.contentType, w.clock, w.body = "application/json", s.store.Clock().Now(), append(body, '\n')
	return nil
}

// writePayload renders read bytes: the object's full size in the size
// header, the metadata marker when the store retains no payload, and
// the (possibly empty) body, of declared length so the client can read
// it into a buffer of the right size.
func (s *Server) writePayload(w *response, status int, size int64, data []byte) error {
	w.status, w.size, w.meta, w.body = status, size, data == nil, data
	w.contentType, w.clock = "application/octet-stream", s.store.Clock().Now()
	return nil
}

// writeEmpty renders a bodiless success.
func (s *Server) writeEmpty(w *response) error {
	w.clock = s.store.Clock().Now()
	return nil
}

// --- blobs -----------------------------------------------------------

// handleGet serves a whole object, or — with a Range header — a ranged
// read riding blob.Reader.ReadAt, touching only the physical runs that
// cover the range. The reader lives only for this request.
func (s *Server) handleGet(r *request, w *response) error {
	rd, _, err := s.open(r)
	if err != nil {
		return err
	}
	defer rd.Close()
	size := rd.Size()

	if r.rng != "" {
		off, length, ok, err := parseRange(r.rng, size)
		if err != nil {
			return err
		}
		if ok {
			data, err := rd.ReadAt(off, length)
			if err != nil {
				return err
			}
			w.contentRange = fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size)
			return s.writePayload(w, http.StatusPartialContent, size, data)
		}
	}
	data, err := rd.ReadAll()
	if err != nil {
		return err
	}
	return s.writePayload(w, http.StatusOK, size, data)
}

// handleHead serves object metadata: size and version. It is also a
// remote reader's open (wire.HeaderOpen), costing what Store.Open does,
// and its empty read (pinned), costing what ReadAt(off, 0) does.
func (s *Server) handleHead(r *request, w *response) error {
	var info blob.Info
	var err error
	if !r.open && r.version == "" {
		info, err = s.store.Stat(r.ctx, r.key)
	} else {
		var rd blob.Reader
		if rd, info, err = s.open(r); err == nil {
			if r.version != "" {
				_, err = rd.ReadAt(0, 0)
			}
			rd.Close()
		}
	}
	if err != nil {
		return err
	}
	w.size, w.version, w.clock = info.Size, int64(info.Version), s.store.Clock().Now()
	return nil
}

// open opens the key for a GET or a reader's HEAD, and but for a plain
// GET also stats it, free of charge (blob.Resume) after the Open. A
// request pinned to a version (wire.HeaderVersion) continues a reader
// whose opening HEAD paid for the open, so its Open is free too. It is
// served only while the reader holds the pinned version: a key's
// versions only grow (pinned ≤ opened ≤ stat'd), so a Stat after Open
// that reports the pinned version proves it. A version that does not
// parse is ErrBadOption, never an unpinned read.
func (s *Server) open(r *request) (blob.Reader, blob.Info, error) {
	ctx, v := r.ctx, r.version
	var pin uint64
	if v != "" {
		var err error
		if pin, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, blob.Info{}, fmt.Errorf("%w: bad %s %q", blob.ErrBadOption, wire.HeaderVersion, v)
		}
		ctx = blob.Resume(ctx)
	}
	rd, err := s.store.Open(ctx, r.key)
	if err != nil || (v == "" && r.method == http.MethodGet) {
		return rd, blob.Info{}, err
	}
	info, err := s.store.Stat(blob.Resume(ctx), r.key)
	if err == nil && v != "" && info.Version != pin {
		err = fmt.Errorf("%w: %s (version %d replaced or deleted)", blob.ErrNotFound, r.key, pin)
	}
	if err == nil {
		return rd, info, nil
	}
	rd.Close()
	return nil, blob.Info{}, err
}

// handlePut streams one whole object in: the body flows through the
// store's blob.Writer in chunks, so a large upload never buffers
// wholly in server memory. mode=create fails on an existing key;
// mode=replace (the default) is the safe replace. A request with the
// meta-bytes header performs a metadata-only write of that many
// logical bytes.
func (s *Server) handlePut(r *request, w *response) error {
	metaBytes := int64(-1)
	if v := r.metaBytes; v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: bad %s %q", blob.ErrInvalidSize, wire.HeaderMetaBytes, v)
		}
		if r.length > 0 || r.chunked {
			return fmt.Errorf("%w: a %s PUT with a body", blob.ErrBadOption, wire.HeaderMetaBytes)
		}
		metaBytes = n
	}
	size := metaBytes
	if size < 0 {
		size = r.length
		if v := r.size; v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%w: bad %s %q", blob.ErrInvalidSize, wire.HeaderSize, v)
			}
			size = n
		}
		if size < 0 {
			return fmt.Errorf("%w: PUT without a declared size (chunked body and no %s header)",
				blob.ErrInvalidSize, wire.HeaderSize)
		}
	}

	var wr blob.Writer
	var err error
	switch r.mode {
	case wire.ModeCreate:
		wr, err = s.store.Create(r.ctx, r.key, size)
	case wire.ModeReplace, "":
		wr, err = s.store.Replace(r.ctx, r.key, size)
	default:
		return fmt.Errorf("%w: unknown write mode %q", blob.ErrBadOption, r.mode)
	}
	if err != nil {
		return err
	}

	if metaBytes >= 0 {
		if err := wr.Append(metaBytes, nil); err != nil {
			wr.Abort()
			return err
		}
	} else if err := copyBody(wr, r.body); err != nil {
		wr.Abort()
		return err
	}
	if err := wr.Commit(); err != nil {
		wr.Abort()
		return err
	}
	return s.writeEmpty(w)
}

// copyBufPool recycles copyBody's chunk buffer, which used to be
// allocated and zeroed per PUT. Sharing it across requests is safe
// because blob.Writer.Append copies what it keeps — copyBody already
// reuses the buffer between chunks of one stream.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 256<<10)
	return &b
}}

// copyBody streams a request body into a writer in full 256 KB appends.
// The store cuts each Append into write requests, and the request size
// shapes the on-disk layout (§5.3), so an append is filled before it is
// made: the request sequence is then a function of the object's size
// alone, not of how the kernel segmented the body on its way here.
func copyBody(w blob.Writer, body io.Reader) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	for {
		n, err := io.ReadFull(body, buf)
		if n > 0 {
			if aerr := w.Append(int64(n), buf[:n]); aerr != nil {
				return aerr
			}
		}
		// A short or empty last read is how a body normally ends; a
		// truncated one then fails Commit's declared-size check.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// handleDelete removes an object.
func (s *Server) handleDelete(r *request, w *response) error {
	if err := s.store.Delete(r.ctx, r.key); err != nil {
		return err
	}
	return s.writeEmpty(w)
}

// --- introspection ---------------------------------------------------

func (s *Server) handleKeys(r *request, w *response) error {
	keys := s.store.Keys()
	if keys == nil {
		keys = []string{}
	}
	return s.writeJSON(w, wire.KeysResponse{Keys: keys})
}

func (s *Server) handleStats(r *request, w *response) error {
	return s.writeJSON(w, wire.StatsResponse{
		Name:          s.store.Name(),
		ObjectCount:   s.store.ObjectCount(),
		LiveBytes:     s.store.LiveBytes(),
		RetiredBytes:  s.store.RetiredBytes(),
		FreeBytes:     s.store.FreeBytes(),
		CapacityBytes: s.store.CapacityBytes(),
		ClockNs:       s.store.Clock().Now(),
	})
}

// handleLayout serializes every object's physical runs and owner tag —
// the remote half of frag.Source/frag.TagSource, so fragmentation
// analysis runs against a served store too.
func (s *Server) handleLayout(r *request, w *response) error {
	objs := []wire.LayoutObject{}
	idx := make(map[string]int)
	s.store.EachObjectRuns(func(key string, bytes int64, runs []extent.Run) {
		idx[key] = len(objs)
		objs = append(objs, wire.LayoutObject{
			Key: key, Bytes: bytes, Runs: append([]extent.Run(nil), runs...),
		})
	})
	s.store.EachObjectTag(func(key string, tag uint32) {
		if i, ok := idx[key]; ok {
			objs[i].Tag = tag
		}
	})
	return s.writeJSON(w, objs)
}

// --- observability ---------------------------------------------------

// handleMetrics serves the live wall-clock metrics as a PhaseReport.
func (s *Server) handleMetrics(w *response) {
	s.writeJSON(w, obs.PhaseFromSnapshot("live", s.reg.Snapshot()))
}

// handleReport serves a full schema-valid RunReport with one "serve"
// experiment holding the live phase.
func (s *Server) handleReport(w *response) {
	rep := obs.NewRunReport()
	rep.Experiment("serve", "network blob service", "").AddPhase("live", s.reg.Snapshot())
	var b bytes.Buffer
	rep.WriteJSON(&b)
	w.contentType, w.clock, w.body = "application/json", s.store.Clock().Now(), b.Bytes()
}

// --- range parsing ---------------------------------------------------

// parseRange parses a single-range "bytes=a-b" header against an
// object size, returning the offset/length to read and whether the
// header yielded a satisfiable range. Suffix ranges ("bytes=-n") and
// open ends ("bytes=a-") follow RFC 9110; ends past EOF clamp. A range
// starting past the end is ErrOutOfRange (the 416 case); a malformed
// header is not an error but no range, served whole (RFC 9110 allows
// ignoring an invalid Range).
func parseRange(h string, size int64) (off, length int64, ok bool, err error) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false, nil
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false, nil
	}
	if first == "" {
		// Suffix: last n bytes.
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, false, nil
		}
		n = min(n, size)
		return size - n, n, size > 0, nil
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false, nil
	}
	if start >= size {
		return 0, 0, false, fmt.Errorf("%w: range %q of %d-byte object", blob.ErrOutOfRange, h, size)
	}
	end := size - 1
	if last != "" {
		end, err = strconv.ParseInt(last, 10, 64)
		if err != nil || end < start {
			return 0, 0, false, nil
		}
		end = min(end, size-1)
	}
	return start, end - start + 1, true, nil
}

// queryValue is url.Values.Get(name) of a raw query, without the map:
// the first value of name among the pairs url.ParseQuery keeps (a pair
// with a semicolon or a bad escape is dropped).
func queryValue(query, name string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

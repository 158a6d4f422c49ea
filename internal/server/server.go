// Package server is the network front-end of the blob store: an
// HTTP/1.1 service exposing any blob.Store stack (core, shard, cache,
// group-commit, obs — the server is agnostic) to remote clients.
//
// The request path is client → admission control → handler → store:
// every store-touching request first passes the bounded
// in-flight/queue admission controller (admission.go), runs under a
// per-request context deadline, and records its wall-clock latency
// into a UnitWall obs.Registry — the tail-latency SLO view, reported
// through the same histogram/report pipeline the simulation uses for
// virtual time (the time_unit tag keeps the two apart).
//
// Stateless operations (GET/HEAD/PUT/DELETE on /v1/blobs/) map one
// request to one whole store operation. Stateful reader/writer
// sessions (/v1/read*, /v1/write*) hold real blob.Reader/blob.Writer
// handles server-side (session.go), so the remote client preserves the
// full store contract — version-pinned readers, exclusive writers,
// streaming appends — and the cross-backend conformance suite passes
// end-to-end over a live listener (see internal/client).
//
// Every response carries the store's virtual clock in a header;
// clients ratchet it into a local clock so virtual-time accounting
// (the simulation's cost model) survives the network hop. Errors
// travel by sentinel name plus mapped HTTP status (blob/httpmap.go).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// Config tunes one Server.
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

	// SessionTTL is the idle wall time after which an abandoned
	// reader/writer session is reaped (writers aborted, so the key's
	// write lock is released). Zero or negative takes
	// DefaultSessionTTL.
	SessionTTL time.Duration

	// Registry receives the service's wall-clock metrics: "serve.<op>"
	// latency histograms, "serve.<op>.err.<name>" counters, and
	// admission counters. Must be a wall-unit registry
	// (obs.NewWallRegistry); nil disables metrics.
	Registry *obs.Registry
}

// Defaults for Config zero values.
const (
	DefaultMaxInFlight = 256
	DefaultSessionTTL  = 2 * time.Minute
)

// Server serves one blob.Store over HTTP. Create with New, mount as an
// http.Handler, and Close when done (stops the session janitor and
// aborts live sessions). The wrapped store's lifecycle belongs to the
// caller.
type Server struct {
	store    blob.Store
	cfg      Config
	reg      *obs.Registry
	adm      *admission
	sessions *sessionTable
	mux      *http.ServeMux

	janitorStop chan struct{}
	janitorDone chan struct{}
	closed      bool
}

// New builds a Server over store. The config's Registry must be
// wall-unit: the server measures real round-trip time, and recording
// it into a virtual-time registry would silently mix units (the exact
// confusion the time_unit tag exists to prevent).
func New(store blob.Store, cfg Config) (*Server, error) {
	if cfg.Registry != nil && cfg.Registry.Unit() != obs.UnitWall {
		return nil, fmt.Errorf("%w: server registry must be wall-unit (obs.NewWallRegistry), got %s",
			blob.ErrBadOption, cfg.Registry.Unit())
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	s := &Server{
		store:       store,
		cfg:         cfg,
		reg:         cfg.Registry,
		adm:         newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout, cfg.Registry),
		sessions:    newSessionTable(cfg.SessionTTL.Nanoseconds()),
		mux:         http.NewServeMux(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.routes()
	go s.janitor()
	return s, nil
}

// routes wires the wire-contract URL layout to handlers. Every
// store-touching route runs through op() for deadline, admission, and
// metrics; the introspection routes bypass admission so a saturated
// service can still be observed.
func (s *Server) routes() {
	m := s.mux
	m.HandleFunc("GET "+wire.PathBlobs+"{key...}", s.op("get", true, s.handleGet))
	m.HandleFunc("HEAD "+wire.PathBlobs+"{key...}", s.op("head", true, s.handleHead))
	m.HandleFunc("PUT "+wire.PathBlobs+"{key...}", s.op("put", true, s.handlePut))
	m.HandleFunc("DELETE "+wire.PathBlobs+"{key...}", s.op("delete", true, s.handleDelete))

	m.HandleFunc("GET "+wire.PathKeys, s.op("keys", true, s.handleKeys))
	m.HandleFunc("GET "+wire.PathStats, s.op("stats", true, s.handleStats))
	m.HandleFunc("GET "+wire.PathLayout, s.op("layout", true, s.handleLayout))

	m.HandleFunc("POST "+wire.PathRead+"{key...}", s.op("read.open", true, s.handleReadOpen))
	m.HandleFunc("GET "+wire.PathReadH+"{handle}", s.op("read.at", true, s.handleReadAt))
	m.HandleFunc("DELETE "+wire.PathReadH+"{handle}", s.op("read.close", true, s.handleReadClose))

	m.HandleFunc("POST "+wire.PathWrite+"{key...}", s.op("write.open", true, s.handleWriteOpen))
	m.HandleFunc("POST "+wire.PathWriteH+"{handle}", s.op("write.append", true, s.handleAppend))
	m.HandleFunc("POST "+wire.PathWriteH+"{handle}/commit", s.op("write.commit", true, s.handleCommit))
	m.HandleFunc("DELETE "+wire.PathWriteH+"{handle}", s.op("write.abort", true, s.handleAbort))

	m.HandleFunc("GET "+wire.PathMetrics, s.handleMetrics)
	m.HandleFunc("GET "+wire.PathReport, s.handleReport)
	m.HandleFunc("GET "+wire.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		s.setClock(w.Header())
		io.WriteString(w, "ok\n")
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the session janitor and force-closes every live session
// (readers closed, writers aborted — uncommitted streams vanish, prior
// versions intact). Safe to call once; the store itself is not closed.
func (s *Server) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.janitorStop)
	<-s.janitorDone
	s.sessions.closeAll()
	return nil
}

// janitor periodically reaps idle sessions. Session TTLs are real
// wall-clock idle timeouts of remote network clients — a crashed
// client must not pin a key's write lock — so this is one of the two
// sanctioned wall-time call sites (with obs.WallNow).
func (s *Server) janitor() {
	defer close(s.janitorDone)
	interval := s.cfg.SessionTTL / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	//fragvet:ignore vclockpurity session TTLs reap abandoned network clients on real wall time, not simulated time
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			if n := s.sessions.sweep(obs.WallNow()); n > 0 && s.reg != nil {
				s.reg.Counter("sessions.reaped").Add(int64(n))
			}
		}
	}
}

// op wraps a handler with the request path's cross-cutting layers:
// per-request deadline, admission control, wall-latency recording, and
// typed error rendering. fn must write its success response last (all
// store work first), so a failure can still set status and headers.
func (s *Server) op(name string, admit bool, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.WallNow()
		if s.cfg.RequestTimeout > 0 {
			ctx := &reqCtx{Context: r.Context(), deadline: start + s.cfg.RequestTimeout.Nanoseconds()}
			defer ctx.release()
			r = r.WithContext(ctx)
		}
		err := func() error {
			if admit {
				if err := s.adm.acquire(r.Context()); err != nil {
					return err
				}
				defer s.adm.release()
			}
			return fn(w, r)
		}()
		if err != nil {
			s.fail(w, name, err)
			return
		}
		if s.reg != nil {
			s.reg.Histogram("serve." + name).Observe(obs.WallNow() - start)
		}
	}
}

// reqCtx is a request's context under RequestTimeout: the request's own
// plus a deadline that costs a clock read per Err and arms a timer only
// at the first Done (a queued admission, a context.With* child, a store
// that blocks). Err and Value then answer from the timer context, so a
// child's cancel propagation finds it without starting a goroutine.
type reqCtx struct {
	context.Context       // the request's own
	deadline        int64 // obs.WallNow() units
	armed           atomic.Pointer[armedCtx]
}

type armedCtx struct {
	context.Context
	cancel context.CancelFunc
}

func (c *reqCtx) Deadline() (time.Time, bool) { return time.Unix(0, c.deadline), true }

func (c *reqCtx) Err() error {
	if a := c.armed.Load(); a != nil {
		return a.Err()
	}
	if err := c.Context.Err(); err != nil || obs.WallNow() < c.deadline {
		return err
	}
	return context.DeadlineExceeded
}

func (c *reqCtx) Done() <-chan struct{} {
	a := c.armed.Load()
	if a == nil {
		ctx, cancel := context.WithDeadline(c.Context, time.Unix(0, c.deadline))
		if a = (&armedCtx{ctx, cancel}); !c.armed.CompareAndSwap(nil, a) {
			cancel() // another goroutine armed first
			a = c.armed.Load()
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
func (s *Server) fail(w http.ResponseWriter, op string, err error) {
	name := blob.ErrName(err)
	if s.reg != nil {
		s.reg.Counter("serve." + op + ".err." + name).Inc()
	}
	h := w.Header()
	h.Set(wire.HeaderError, name)
	s.setClock(h)
	http.Error(w, err.Error(), blob.HTTPStatus(err))
}

// setClock stamps the store's virtual clock onto a response.
func (s *Server) setClock(h http.Header) {
	h.Set(wire.HeaderClock, strconv.FormatInt(s.store.Clock().Now(), 10))
}

// writeJSON renders a success JSON body.
func (s *Server) writeJSON(w http.ResponseWriter, v any) error {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	s.setClock(h)
	return json.NewEncoder(w).Encode(v)
}

// writePayload renders read bytes: the object's full size in the size
// header, the metadata marker when the store retains no payload, and
// the (possibly empty) body.
func (s *Server) writePayload(w http.ResponseWriter, status int, size int64, data []byte) error {
	h := w.Header()
	h.Set(wire.HeaderSize, strconv.FormatInt(size, 10))
	if data == nil {
		h.Set(wire.HeaderMeta, "1")
	}
	h.Set("Content-Type", "application/octet-stream")
	// Declared, so the body travels unchunked and the client can read it
	// into a buffer of the right size.
	h.Set("Content-Length", strconv.Itoa(len(data)))
	s.setClock(h)
	w.WriteHeader(status)
	_, err := w.Write(data)
	return err
}

// writeEmpty renders a bodiless success.
func (s *Server) writeEmpty(w http.ResponseWriter) error {
	s.setClock(w.Header())
	w.WriteHeader(http.StatusOK)
	return nil
}

// --- stateless front door -------------------------------------------

// handleGet serves a whole object, or — with a Range header — a ranged
// read riding blob.Reader.ReadAt, touching only the physical runs that
// cover the range. The reader lives only for this request.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) error {
	key := r.PathValue("key")
	rd, err := s.store.Open(r.Context(), key)
	if err != nil {
		return err
	}
	defer rd.Close()
	size := rd.Size()

	if rng := r.Header.Get("Range"); rng != "" {
		off, length, ok := parseRange(rng, size)
		if ok {
			data, err := rd.ReadAt(off, length)
			if err != nil {
				return err
			}
			w.Header().Set("Content-Range",
				fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
			return s.writePayload(w, http.StatusPartialContent, size, data)
		}
		// Unsatisfiable ranges are typed; malformed ones are served whole
		// (RFC 9110 allows ignoring an invalid Range).
		if rangeUnsatisfiable(rng, size) {
			return fmt.Errorf("%w: range %q of %d-byte object", blob.ErrOutOfRange, rng, size)
		}
	}
	data, err := rd.ReadAll()
	if err != nil {
		return err
	}
	return s.writePayload(w, http.StatusOK, size, data)
}

// handleHead serves object metadata.
func (s *Server) handleHead(w http.ResponseWriter, r *http.Request) error {
	info, err := s.store.Stat(r.Context(), r.PathValue("key"))
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set(wire.HeaderSize, strconv.FormatInt(info.Size, 10))
	s.setClock(h)
	w.WriteHeader(http.StatusOK)
	return nil
}

// handlePut streams one whole object in: the body flows through the
// store's blob.Writer in chunks, so a large upload never buffers
// wholly in server memory. mode=create fails on an existing key;
// mode=replace (the default) is the safe replace. A request with the
// meta-bytes header performs a metadata-only write of that many
// logical bytes.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) error {
	key := r.PathValue("key")
	metaBytes := int64(-1)
	if v := r.Header.Get(wire.HeaderMetaBytes); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad %s %q", blob.ErrInvalidSize, wire.HeaderMetaBytes, v)
		}
		metaBytes = n
	}
	size := metaBytes
	if size < 0 {
		size = r.ContentLength
		if v := r.Header.Get(wire.HeaderSize); v != "" {
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
	switch mode := r.URL.Query().Get("mode"); mode {
	case wire.ModeCreate:
		wr, err = s.store.Create(r.Context(), key, size)
	case wire.ModeReplace, "":
		wr, err = s.store.Replace(r.Context(), key, size)
	default:
		return fmt.Errorf("%w: unknown write mode %q", blob.ErrBadOption, mode)
	}
	if err != nil {
		return err
	}

	if metaBytes >= 0 {
		if err := wr.Append(metaBytes, nil); err != nil {
			wr.Abort()
			return err
		}
	} else if err := copyBody(wr, r.Body); err != nil {
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
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.store.Delete(r.Context(), r.PathValue("key")); err != nil {
		return err
	}
	return s.writeEmpty(w)
}

// --- introspection ---------------------------------------------------

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) error {
	keys := s.store.Keys()
	if keys == nil {
		keys = []string{}
	}
	return s.writeJSON(w, wire.KeysResponse{Keys: keys})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	return s.writeJSON(w, wire.StatsResponse{
		Name:          s.store.Name(),
		ObjectCount:   s.store.ObjectCount(),
		LiveBytes:     s.store.LiveBytes(),
		FreeBytes:     s.store.FreeBytes(),
		CapacityBytes: s.store.CapacityBytes(),
		ClockNs:       s.store.Clock().Now(),
	})
}

// handleLayout serializes every object's physical runs and owner tag —
// the remote half of frag.Source/frag.TagSource, so fragmentation
// analysis runs against a served store too.
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) error {
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

// --- reader sessions -------------------------------------------------

// handleReadOpen opens a version-pinned reader session. The handle is
// detached from this request's context (it must outlive it); the TTL
// janitor is the backstop for clients that never close.
func (s *Server) handleReadOpen(w http.ResponseWriter, r *http.Request) error {
	rd, err := s.store.Open(context.WithoutCancel(r.Context()), r.PathValue("key"))
	if err != nil {
		return err
	}
	id := s.sessions.addReader(rd)
	return s.writeJSON(w, wire.OpenResponse{Handle: id, Size: rd.Size()})
}

// handleReadAt reads from a session: with off/len query parameters a
// ranged ReadAt, without them a whole-object ReadAll.
func (s *Server) handleReadAt(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.sessions.reader(r.PathValue("handle"))
	if err != nil {
		return err
	}
	q := r.URL.Query()
	var data []byte
	if q.Has("off") || q.Has("len") {
		off, err1 := strconv.ParseInt(q.Get("off"), 10, 64)
		length, err2 := strconv.ParseInt(q.Get("len"), 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%w: bad off/len query", blob.ErrOutOfRange)
		}
		data, err = sess.r.ReadAt(off, length)
	} else {
		data, err = sess.r.ReadAll()
	}
	if err != nil {
		return err
	}
	return s.writePayload(w, http.StatusOK, sess.r.Size(), data)
}

// handleReadClose closes a reader session.
func (s *Server) handleReadClose(w http.ResponseWriter, r *http.Request) error {
	if err := s.sessions.closeReader(r.PathValue("handle")); err != nil {
		return err
	}
	return s.writeEmpty(w)
}

// --- writer sessions -------------------------------------------------

// handleWriteOpen starts a streaming writer session (mode=create or
// mode=replace, size=n declared bytes). The store's own ErrBusy
// exclusivity applies: a second session for the same key is refused
// while this one is uncommitted.
func (s *Server) handleWriteOpen(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	size, err := strconv.ParseInt(q.Get("size"), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad size query %q", blob.ErrInvalidSize, q.Get("size"))
	}
	ctx := context.WithoutCancel(r.Context())
	var wr blob.Writer
	switch mode := q.Get("mode"); mode {
	case wire.ModeCreate:
		wr, err = s.store.Create(ctx, r.PathValue("key"), size)
	case wire.ModeReplace, "":
		wr, err = s.store.Replace(ctx, r.PathValue("key"), size)
	default:
		return fmt.Errorf("%w: unknown write mode %q", blob.ErrBadOption, mode)
	}
	if err != nil {
		return err
	}
	return s.writeJSON(w, wire.WriteOpenResponse{Handle: s.sessions.addWriter(wr)})
}

// handleAppend appends one chunk to a writer session: the request body
// as payload bytes, or — with the meta-bytes header — that many
// logical bytes with no payload.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.sessions.writer(r.PathValue("handle"))
	if err != nil {
		return err
	}
	if v := r.Header.Get(wire.HeaderMetaBytes); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return fmt.Errorf("%w: bad %s %q", blob.ErrInvalidSize, wire.HeaderMetaBytes, v)
		}
		if err := sess.w.Append(n, nil); err != nil {
			return err
		}
		return s.writeEmpty(w)
	}
	data, err := wire.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return err
	}
	if err := sess.w.Append(int64(len(data)), data); err != nil {
		return err
	}
	return s.writeEmpty(w)
}

// handleCommit commits a writer session. On success the session is
// retired; on failure (short commit, expired stream) the session stays
// open and abortable, exactly like a local blob.Writer.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.sessions.writer(r.PathValue("handle"))
	if err != nil {
		return err
	}
	if err := sess.w.Commit(); err != nil {
		return err
	}
	s.sessions.removeWriter(sess.id, true)
	return s.writeEmpty(w)
}

// handleAbort aborts a writer session, releasing the key.
func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) error {
	if err := s.sessions.removeWriter(r.PathValue("handle"), false); err != nil {
		return err
	}
	return s.writeEmpty(w)
}

// --- observability ---------------------------------------------------

// handleMetrics serves the live wall-clock metrics as a PhaseReport.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.reg != nil {
		snap = s.reg.Snapshot()
	} else {
		snap.Unit = obs.UnitWall
	}
	s.writeJSON(w, obs.PhaseFromSnapshot("live", snap))
}

// handleReport serves a full schema-valid RunReport with one "serve"
// experiment holding the live phase.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := obs.NewRunReport()
	e := rep.Experiment("serve", "network blob service", "")
	if s.reg != nil {
		e.AddPhase("live", s.reg.Snapshot())
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	s.setClock(h)
	rep.WriteJSON(w)
}

// --- range parsing ---------------------------------------------------

// parseRange parses a single-range "bytes=a-b" header against an
// object size, returning the offset/length to read and whether the
// header yielded a satisfiable range. Suffix ranges ("bytes=-n") and
// open ends ("bytes=a-") follow RFC 9110; ends past EOF clamp.
func parseRange(h string, size int64) (off, length int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false
	}
	if first == "" {
		// Suffix: last n bytes.
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, false
		}
		if n > size {
			n = size
		}
		return size - n, n, size > 0
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	end := size - 1
	if last != "" {
		end, err = strconv.ParseInt(last, 10, 64)
		if err != nil || end < start {
			return 0, 0, false
		}
		if end > size-1 {
			end = size - 1
		}
	}
	return start, end - start + 1, true
}

// rangeUnsatisfiable reports whether a syntactically valid bytes range
// exists but lies wholly outside the object — the 416 case, distinct
// from a malformed header (served whole).
func rangeUnsatisfiable(h string, size int64) bool {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return false
	}
	first, _, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found || first == "" {
		return false
	}
	start, err := strconv.ParseInt(first, 10, 64)
	return err == nil && start >= size
}

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
// Every operation is one request (GET/HEAD/PUT/DELETE on /v1/blobs/)
// mapped to one whole store operation; the server holds no handle
// between requests. Remote handles travel by version instead: HEAD
// reports an object's version (blob.Info.Version) and a GET or HEAD
// that names one is served only while it is live, so a remote reader
// stays pinned to the version it opened, and a remote writer is one PUT
// at Commit (see internal/client, where the cross-backend conformance
// suite passes end-to-end over a live listener). A remote reader costs
// the store what a local one does: its opening HEAD pays for an Open,
// and each pinned read re-opens under blob.Resume and pays only for the
// read.
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

	// Registry receives the service's wall-clock metrics: "serve.<op>"
	// latency histograms, "serve.<op>.err.<name>" counters, and
	// admission counters. Must be a wall-unit registry
	// (obs.NewWallRegistry); nil disables metrics.
	Registry *obs.Registry
}

// DefaultMaxInFlight is the in-flight limit a zero Config.MaxInFlight
// takes.
const DefaultMaxInFlight = 256

// Server serves one blob.Store over HTTP. Create with New and mount as
// an http.Handler. It starts no goroutine and holds nothing between
// requests; the wrapped store's lifecycle belongs to the caller.
type Server struct {
	store blob.Store
	cfg   Config
	reg   *obs.Registry
	adm   *admission
	mux   *http.ServeMux
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
	cfg.MaxQueue = max(cfg.MaxQueue, 0)
	s := &Server{
		store: store,
		cfg:   cfg,
		reg:   cfg.Registry,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout, cfg.Registry),
		mux:   http.NewServeMux(),
	}
	s.routes()
	return s, nil
}

// routes wires the wire-contract URL layout to handlers. Every
// store-touching route runs through op() for deadline, admission, and
// metrics; the introspection routes bypass admission so a saturated
// service can still be observed.
func (s *Server) routes() {
	m := s.mux
	m.HandleFunc("GET "+wire.PathBlobs+"{key...}", s.op("get", s.handleGet))
	m.HandleFunc("HEAD "+wire.PathBlobs+"{key...}", s.op("head", s.handleHead))
	m.HandleFunc("PUT "+wire.PathBlobs+"{key...}", s.op("put", s.handlePut))
	m.HandleFunc("DELETE "+wire.PathBlobs+"{key...}", s.op("delete", s.handleDelete))

	m.HandleFunc("GET "+wire.PathKeys, s.op("keys", s.handleKeys))
	m.HandleFunc("GET "+wire.PathStats, s.op("stats", s.handleStats))
	m.HandleFunc("GET "+wire.PathLayout, s.op("layout", s.handleLayout))

	m.HandleFunc("GET "+wire.PathMetrics, s.handleMetrics)
	m.HandleFunc("GET "+wire.PathReport, s.handleReport)
	m.HandleFunc("GET "+wire.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		s.setClock(w.Header())
		io.WriteString(w, "ok\n")
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close does nothing: the server holds nothing to release. It stays
// only because the bench module, edited once per re-baseline, calls it.
func (s *Server) Close() error { return nil }

// op wraps a handler with the request path's cross-cutting layers:
// per-request deadline, admission control, wall-latency recording, and
// typed error rendering. fn must write its success response last (all
// store work first), so a failure can still set status and headers.
func (s *Server) op(name string, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.WallNow()
		if s.cfg.RequestTimeout > 0 {
			ctx := &reqCtx{Context: r.Context(), deadline: start + s.cfg.RequestTimeout.Nanoseconds()}
			defer ctx.release()
			r = r.WithContext(ctx)
		}
		err := func() error {
			if err := s.adm.acquire(r.Context()); err != nil {
				return err
			}
			defer s.adm.release()
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

// --- blobs -----------------------------------------------------------

// handleGet serves a whole object, or — with a Range header — a ranged
// read riding blob.Reader.ReadAt, touching only the physical runs that
// cover the range. The reader lives only for this request.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) error {
	rd, _, err := s.open(r, r.PathValue("key"))
	if err != nil {
		return err
	}
	defer rd.Close()
	size := rd.Size()

	if rng := r.Header.Get("Range"); rng != "" {
		off, length, ok, err := parseRange(rng, size)
		if err != nil {
			return err
		}
		if ok {
			data, err := rd.ReadAt(off, length)
			if err != nil {
				return err
			}
			w.Header().Set("Content-Range",
				fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
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
func (s *Server) handleHead(w http.ResponseWriter, r *http.Request) error {
	key := r.PathValue("key")
	var info blob.Info
	var err error
	if r.Header.Get(wire.HeaderOpen) == "" && r.Header.Get(wire.HeaderVersion) == "" {
		info, err = s.store.Stat(r.Context(), key)
	} else {
		var rd blob.Reader
		if rd, info, err = s.open(r, key); err == nil {
			if r.Header.Get(wire.HeaderVersion) != "" {
				_, err = rd.ReadAt(0, 0)
			}
			rd.Close()
		}
	}
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set(wire.HeaderSize, strconv.FormatInt(info.Size, 10))
	h.Set(wire.HeaderVersion, strconv.FormatUint(info.Version, 10))
	s.setClock(h)
	w.WriteHeader(http.StatusOK)
	return nil
}

// open opens key for a GET or a reader's HEAD, and but for a plain GET
// also stats it, free of charge (blob.Resume) after the Open. A request
// pinned to a version (wire.HeaderVersion) continues a reader whose
// opening HEAD paid for the open, so its Open is free too. It is served
// only while the reader holds the pinned version: a key's versions only
// grow (pinned ≤ opened ≤ stat'd), so a Stat after Open that reports
// the pinned version proves it. A version that does not parse is
// ErrBadOption, never an unpinned read.
func (s *Server) open(r *http.Request, key string) (blob.Reader, blob.Info, error) {
	ctx := r.Context()
	v := r.Header.Get(wire.HeaderVersion)
	var pin uint64
	if v != "" {
		var err error
		if pin, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, blob.Info{}, fmt.Errorf("%w: bad %s %q", blob.ErrBadOption, wire.HeaderVersion, v)
		}
		ctx = blob.Resume(ctx)
	}
	rd, err := s.store.Open(ctx, key)
	if err != nil || (v == "" && r.Method == http.MethodGet) {
		return rd, blob.Info{}, err
	}
	info, err := s.store.Stat(blob.Resume(ctx), key)
	if err == nil && v != "" && info.Version != pin {
		err = fmt.Errorf("%w: %s (version %d replaced or deleted)", blob.ErrNotFound, key, pin)
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

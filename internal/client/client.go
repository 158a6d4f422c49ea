// Package client implements blob.Store over the network blob
// service's wire protocol (internal/server, internal/server/wire): a
// remote store that is contract-identical to a local one. The
// cross-backend conformance suite runs end-to-end through a real
// listener — version-pinned readers, exclusive writers, streaming
// appends, typed sentinels, and context deadlines all survive the hop.
//
// Three mechanisms carry the contract across:
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
//   - Handles travel by session. Open/Create/Replace map to
//     server-side sessions holding real blob.Reader/blob.Writer
//     handles; the client revalidates locally (blob.StreamState — the
//     same ladder backend writers use) so closed-handle, cancellation,
//     and size-precedence semantics are bit-compatible without a round
//     trip.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/server/wire"
	"repro/internal/vclock"
)

// Store is a blob.Store backed by a remote network blob service.
// Safe for concurrent use. Close releases idle connections.
type Store struct {
	base  string // service base URL, no trailing slash
	hc    *http.Client
	name  string
	clock *vclock.Clock
	mu    sync.Mutex // serializes clock ratcheting (advance-by-delta must not interleave)
}

// Dial connects to a network blob service and verifies it is alive
// (one stats round trip, which also seeds the local virtual clock and
// the store's reported name).
func Dial(baseURL string) (*Store, error) {
	s := &Store{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{Transport: &http.Transport{}},
		clock: vclock.New(),
	}
	st, err := s.stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", baseURL, err)
	}
	s.name = st.Name
	return s, nil
}

// Close releases the client's idle connections. Open sessions on the
// server are left to their own Close/Abort (or the server's TTL
// janitor).
func (s *Store) Close() error {
	s.hc.CloseIdleConnections()
	return nil
}

// ratchet advances the local clock to the server clock carried by a
// response, never backwards — concurrent responses may arrive out of
// order, and virtual time is monotonic.
func (s *Store) ratchet(h http.Header) {
	ns, err := strconv.ParseInt(h.Get(wire.HeaderClock), 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if d := ns - s.clock.Now(); d > 0 {
		s.clock.Advance(d)
	}
	s.mu.Unlock()
}

// sliceBody is a request body that reads the caller's slice in place.
// The transport may still be reading it when Do returns (a server can
// answer before it has read the request) and closes every body it was
// given once done with it; do waits on sent for those Closes.
type sliceBody struct {
	*bytes.Reader
	done func() // sent.Done, once: the transport may close a body twice
}

func (b sliceBody) Close() error { b.done(); return nil }

// do performs one wire call: context pre-check, request, clock
// ratchet, and typed error mapping. payload, when not empty, is sent as
// the request body without being copied and is not referenced after do
// returns. On success the caller owns the response body. On failure the
// sentinel named by the response (or mapped from its status) is wrapped
// into the returned error.
func (s *Store) do(ctx context.Context, method, path string, payload []byte, hdr map[string]string) (*http.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if len(payload) > 0 {
		var sent sync.WaitGroup
		defer sent.Wait()
		// GetBody lets the transport replay the request on a connection
		// the server closed while idle, as the standard body types do.
		req.GetBody = func() (io.ReadCloser, error) {
			sent.Add(1)
			return sliceBody{bytes.NewReader(payload), sync.OnceFunc(sent.Done)}, nil
		}
		req.Body, _ = req.GetBody()
		req.ContentLength = int64(len(payload))
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		// A canceled/expired context surfaces wrapped in *url.Error;
		// errors.Is still resolves it, but prefer the bare context error
		// so messages match local-store behavior.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	s.ratchet(resp.Header)
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		sentinel := blob.Sentinel(resp.Header.Get(wire.HeaderError))
		if sentinel == nil {
			sentinel = blob.StatusSentinel(resp.StatusCode)
		}
		if sentinel == nil {
			return nil, fmt.Errorf("client: %s %s: http %d: %s",
				method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
		}
		return nil, fmt.Errorf("%w (remote: %s)", sentinel, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// doJSON performs a wire call and decodes a JSON success body into v.
func (s *Store) doJSON(ctx context.Context, method, path string, v any) error {
	resp, err := s.do(ctx, method, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain consumes and closes a success body the caller doesn't need,
// keeping the connection reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// --- blob.Store ------------------------------------------------------

// Name reports the remote store's own name, so reports and logs label
// a served filesystem store exactly like a local one.
func (s *Store) Name() string { return s.name }

// Clock returns the client's mirror of the server store's virtual
// clock (ratcheted from response headers).
func (s *Store) Clock() *vclock.Clock { return s.clock }

// Open opens a version-pinned reader session on the server.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	resp, err := s.do(ctx, "POST", wire.PathRead+escape(key), nil, nil)
	if err != nil {
		return nil, err
	}
	var open wire.OpenResponse
	err = json.NewDecoder(resp.Body).Decode(&open)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("client: open %s: %w", key, err)
	}
	return &reader{s: s, ctx: ctx, handle: open.Handle, size: open.Size}, nil
}

// Create starts a streaming write of a new object via a server writer
// session.
func (s *Store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.openWriter(ctx, key, size, wire.ModeCreate)
}

// Replace starts a streaming safe replace via a server writer session.
func (s *Store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.openWriter(ctx, key, size, wire.ModeReplace)
}

func (s *Store) openWriter(ctx context.Context, key string, size int64, mode string) (blob.Writer, error) {
	path := fmt.Sprintf("%s%s?mode=%s&size=%d", wire.PathWrite, escape(key), mode, size)
	resp, err := s.do(ctx, "POST", path, nil, nil)
	if err != nil {
		return nil, err
	}
	var open wire.WriteOpenResponse
	err = json.NewDecoder(resp.Body).Decode(&open)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", mode, key, err)
	}
	return &writer{s: s, ctx: ctx, handle: open.Handle, st: blob.NewStreamState(key, size)}, nil
}

// Delete removes an object.
func (s *Store) Delete(ctx context.Context, key string) error {
	resp, err := s.do(ctx, "DELETE", wire.PathBlobs+escape(key), nil, nil)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// Stat returns object metadata (one HEAD round trip).
func (s *Store) Stat(ctx context.Context, key string) (blob.Info, error) {
	resp, err := s.do(ctx, "HEAD", wire.PathBlobs+escape(key), nil, nil)
	if err != nil {
		return blob.Info{}, err
	}
	drain(resp)
	size, err := strconv.ParseInt(resp.Header.Get(wire.HeaderSize), 10, 64)
	if err != nil {
		return blob.Info{}, fmt.Errorf("client: stat %s: bad size header: %w", key, err)
	}
	return blob.Info{Key: key, Size: size}, nil
}

// stats fetches the remote accounting surface.
func (s *Store) stats(ctx context.Context) (wire.StatsResponse, error) {
	var st wire.StatsResponse
	err := s.doJSON(ctx, "GET", wire.PathStats, &st)
	return st, err
}

// Keys lists live objects. The blob.Store accounting surface has no
// context or error channel; a network failure reports an empty
// listing.
func (s *Store) Keys() []string {
	var kr wire.KeysResponse
	if err := s.doJSON(context.Background(), "GET", wire.PathKeys, &kr); err != nil {
		return nil
	}
	return kr.Keys
}

// ObjectCount implements blob.Store (one stats round trip).
func (s *Store) ObjectCount() int { st, _ := s.stats(context.Background()); return st.ObjectCount }

// LiveBytes implements blob.Store.
func (s *Store) LiveBytes() int64 { st, _ := s.stats(context.Background()); return st.LiveBytes }

// FreeBytes implements blob.Store.
func (s *Store) FreeBytes() int64 { st, _ := s.stats(context.Background()); return st.FreeBytes }

// CapacityBytes implements blob.Store.
func (s *Store) CapacityBytes() int64 {
	st, _ := s.stats(context.Background())
	return st.CapacityBytes
}

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
	if err := s.doJSON(context.Background(), "GET", wire.PathLayout, &objs); err != nil {
		return nil
	}
	return objs
}

var _ blob.Store = (*Store)(nil)

// --- one-shot fast paths ---------------------------------------------

// Fetch reads a whole object in one GET round trip (versus the three
// of Open/ReadAll/Close) — the load generator's read path. Returns the
// object's size and, when the store retains payloads, its bytes.
func (s *Store) Fetch(ctx context.Context, key string) (int64, []byte, error) {
	resp, err := s.do(ctx, "GET", wire.PathBlobs+escape(key), nil, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	size, _ := strconv.ParseInt(resp.Header.Get(wire.HeaderSize), 10, 64)
	if resp.Header.Get(wire.HeaderMeta) == "1" {
		drain(resp)
		return size, nil, nil
	}
	data, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return 0, nil, fmt.Errorf("client: fetch %s: %w", key, err)
	}
	return size, data, nil
}

// FetchAt reads one byte range in one round trip via an HTTP Range
// GET, riding the server's blob.Reader.ReadAt.
func (s *Store) FetchAt(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("%w: range [%d, +%d)", blob.ErrOutOfRange, off, length)
	}
	hdr := map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", off, off+length-1)}
	resp, err := s.do(ctx, "GET", wire.PathBlobs+escape(key), nil, hdr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.Header.Get(wire.HeaderMeta) == "1" {
		drain(resp)
		return nil, nil
	}
	data, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("client: fetch %s range: %w", key, err)
	}
	return data, nil
}

// Upload writes a whole object in one PUT round trip (versus the
// three of Create/Append/Commit) — the load generator's write path.
// data nil performs a metadata-only write of size logical bytes.
// replace selects safe-replace semantics; otherwise create.
func (s *Store) Upload(ctx context.Context, key string, size int64, data []byte, replace bool) error {
	mode := wire.ModeCreate
	if replace {
		mode = wire.ModeReplace
	}
	path := fmt.Sprintf("%s%s?mode=%s", wire.PathBlobs, escape(key), mode)
	hdr := map[string]string{}
	if data == nil {
		hdr[wire.HeaderMetaBytes] = strconv.FormatInt(size, 10)
	} else {
		hdr[wire.HeaderSize] = strconv.FormatInt(size, 10)
	}
	resp, err := s.do(ctx, "PUT", path, data, hdr)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// escape makes a key safe as a URL path suffix while keeping slashes
// (the server route uses a trailing wildcard).
func escape(key string) string {
	parts := strings.Split(key, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}

// --- reader ----------------------------------------------------------

// reader is a client-side handle to a server reader session. The
// closed flag and context are enforced locally (matching local reader
// semantics and saving a doomed round trip); everything else —
// version pinning above all — is the server-side blob.Reader's.
type reader struct {
	s      *Store
	ctx    context.Context
	handle string
	size   int64
	closed atomic.Bool
}

// Size implements blob.Reader.
func (r *reader) Size() int64 { return r.size }

// ReadAll implements blob.Reader.
func (r *reader) ReadAll() ([]byte, error) {
	return r.read(wire.PathReadH + r.handle)
}

// ReadAt implements blob.Reader. Bounds are checked locally
// (overflow-safe), matching backend reader behavior exactly.
func (r *reader) ReadAt(off, length int64) ([]byte, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("%w: reader for session %s", blob.ErrClosed, r.handle)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if off < 0 || length < 0 || off > r.size || length > r.size-off {
		return nil, fmt.Errorf("%w: [%d, +%d) of %d-byte object", blob.ErrOutOfRange, off, length, r.size)
	}
	return r.read(fmt.Sprintf("%s%s?off=%d&len=%d", wire.PathReadH, r.handle, off, length))
}

func (r *reader) read(path string) ([]byte, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("%w: reader for session %s", blob.ErrClosed, r.handle)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := r.s.do(r.ctx, "GET", path, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.Header.Get(wire.HeaderMeta) == "1" {
		drain(resp)
		return nil, nil
	}
	data, err := wire.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("client: session read: %w", err)
	}
	return data, nil
}

// Close implements blob.Reader: idempotent, and detached from the
// opening context so a canceled op can still release its session.
func (r *reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	resp, err := r.s.do(context.WithoutCancel(r.ctx), "DELETE", wire.PathReadH+r.handle, nil, nil)
	if err != nil {
		// The server may have reaped the session already (TTL) — the
		// handle is gone either way.
		if errors.Is(err, blob.ErrNotFound) {
			return nil
		}
		return err
	}
	drain(resp)
	return nil
}

// --- writer ----------------------------------------------------------

// writer is a client-side handle to a server writer session. The full
// local validation ladder (blob.StreamState — the same one backend
// writers run) guards every call, so closed/canceled/size-precedence
// semantics match a local writer without a round trip; bytes that pass
// it stream to the server session in per-append requests.
type writer struct {
	s      *Store
	ctx    context.Context
	handle string
	st     blob.StreamState
}

// Append implements blob.Writer.
func (w *writer) Append(n int64, data []byte) error {
	if err := w.st.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	var hdr map[string]string
	if data == nil {
		hdr = map[string]string{wire.HeaderMetaBytes: strconv.FormatInt(n, 10)}
	}
	resp, err := w.s.do(w.ctx, "POST", wire.PathWriteH+w.handle, data, hdr)
	if err != nil {
		return err
	}
	drain(resp)
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

// Commit implements blob.Writer. A commit the local ladder refuses
// (short stream) never reaches the wire; a commit the server refuses
// leaves the writer open and abortable, exactly like a local writer.
func (w *writer) Commit() error {
	if err := w.st.BeginCommit(w.ctx); err != nil {
		return err
	}
	resp, err := w.s.do(w.ctx, "POST", wire.PathWriteH+w.handle+"/commit", nil, nil)
	if err != nil {
		return err
	}
	drain(resp)
	w.st.Close()
	return nil
}

// Abort implements blob.Writer: idempotent, detached from the opening
// context, and tolerant of a server session already reaped by TTL.
func (w *writer) Abort() error {
	if w.st.Closed() {
		return nil
	}
	w.st.Close()
	resp, err := w.s.do(context.WithoutCancel(w.ctx), "DELETE", wire.PathWriteH+w.handle, nil, nil)
	if err != nil {
		if errors.Is(err, blob.ErrNotFound) {
			return nil
		}
		return err
	}
	drain(resp)
	return nil
}

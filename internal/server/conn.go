package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

const maxDrain = 16 << 20 // body bytes a refused request may leave to be read and dropped

var errHeadTooLarge = errors.New("server: request head too large")

// Serve accepts connections on ln and serves each on a goroutine of its
// own, which reads a request head, runs its handler and sends the
// response before it reads the next. It returns http.ErrServerClosed
// after Shutdown, or the error that ended Accept; ln is closed then.
func (s *Server) Serve(ln net.Listener) error {
	defer ln.Close()
	s.mu.Lock()
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for !s.closing.Load() {
		nc, err := ln.Accept()
		s.mu.Lock()
		if s.closing.Load() || err != nil {
			s.mu.Unlock()
			if nc != nil {
				nc.Close()
			}
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			return err
		}
		c := &conn{s: s, nc: nc, watched: make(chan struct{}, 1)}
		c.in = wire.Head{R: bufio.NewReader(c), Bad: blob.ErrBadOption, TooLarge: errHeadTooLarge}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
	return http.ErrServerClosed
}

// Shutdown closes the listeners and the idle connections, and waits
// until every running request has been answered and its connection
// closed. If ctx ends first, it closes the rest and returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()
	//fragvet:ignore vclockpurity shutdown waits on real connections
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		for c := range s.conns {
			if c.idle.CompareAndSwap(true, false) || ctx.Err() != nil {
				c.nc.Close()
			}
		}
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 || ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
}

// conn is one served connection, used by one request at a time.
type conn struct {
	s    *Server
	nc   net.Conn
	in   wire.Head   // reads request heads off in.R, which reads through conn.Read
	idle atomic.Bool // waiting for a request; Shutdown closes it then
	req  request
	resp response
	body body
	head []byte      // the response head, rewritten by each response
	vec  [2][]byte   // head and body of the response being sent
	bufs net.Buffers // vec, consumed as it is written
	date []byte      // the Date of second sec
	sec  int64

	// The hang-up watcher: a read on nc while a request runs, so that its
	// context ends when the client goes away. watching is 0 while the
	// body is unread (a read would take its bytes), 1 once it is read, 2
	// once the watcher runs.
	watching atomic.Int32
	watched  chan struct{} // the watcher's read returned
	hungUp   atomic.Bool
	cur      *reqCtx // the running request's context
	stash    [1]byte // a byte the watcher read: the next request's first
	stashed  bool
}

// Read feeds in.R: a byte the watcher read, then the connection.
func (c *conn) Read(p []byte) (int, error) {
	if c.stashed && len(p) > 0 {
		c.stashed, p[0] = false, c.stash[0]
		return 1, nil
	}
	return c.nc.Read(p)
}

func (c *conn) serve() {
	for c.next() && c.serveOne() {
	}
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// next waits, idle, for the next request's first byte; false when the
// connection is done.
func (c *conn) next() bool {
	c.idle.Store(true)
	if c.s.closing.Load() {
		return false
	}
	_, err := c.in.R.Peek(1)
	return c.idle.CompareAndSwap(true, false) && err == nil
}

// serveOne reads, runs and answers one request; true when the
// connection may carry another. A head the parser refuses is answered
// 400 (431 when too large) and the connection closed.
func (c *conn) serveOne() bool {
	r, w, b := &c.req, &c.resp, &c.body
	*r = request{ctx: context.Background(), c: c, body: b}
	if err := readRequest(&c.in, r); err != nil {
		if err == errHeadTooLarge {
			w.reset()
			w.text(http.StatusRequestHeaderFieldsTooLarge, err.Error()+"\n")
		} else if errors.Is(err, blob.ErrBadOption) {
			c.s.fail(w, "request", err)
		} else {
			return false // a closed connection or a head cut short
		}
		r.method = ""
		c.write(r, w, false)
		return false
	}
	*b = body{c: c, lr: io.LimitedReader{R: c.in.R, N: r.length}, done: r.length == 0}
	b.expect = r.expect && !b.done
	if r.chunked {
		b.chunked = httputil.NewChunkedReader(c.in.R)
	}
	if b.done {
		c.watching.Store(1)
	}
	c.s.serve(r, w)
	keep := !r.close && !c.s.closing.Load() && b.drain()
	if c.watching.Swap(0) == 2 { // end the watcher before in.R reads again
		c.nc.SetReadDeadline(time.Unix(1, 0))
		<-c.watched
		c.nc.SetReadDeadline(time.Time{})
	}
	c.cur = nil
	return !c.hungUp.Load() && c.write(r, w, keep) == nil && keep
}

// write sends a response in one writev: the head, then the body, which
// the response to a HEAD does not carry.
func (c *conn) write(r *request, w *response, keep bool) error {
	b := strconv.AppendInt(append(c.head[:0], "HTTP/1.1 "...), int64(w.status), 10)
	if text := http.StatusText(w.status); text != "" {
		b = append(append(b, ' '), text...)
	} else {
		b = strconv.AppendInt(append(b, " status code "...), int64(w.status), 10)
	}
	if now := obs.WallNow() / 1e9; now != c.sec {
		c.sec, c.date = now, time.Unix(now, 0).UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b = w.appendHeader(append(append(b, "\r\nDate: "...), c.date...), r.method == http.MethodHead)
	if !keep {
		b = append(b, "\r\nConnection: close"...)
	} else if r.http10 {
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	c.head = append(b, "\r\n\r\n"...)
	c.bufs = append(c.vec[:0], c.head)
	if r.method != http.MethodHead {
		c.bufs = append(c.bufs, w.body)
	}
	_, err := c.bufs.WriteTo(c.nc)
	c.vec = [2][]byte{}
	return err
}

// watch starts the watcher if the request's body is read. A request
// that waits before that (a queued PUT) hears of a hang-up when it reads
// the body.
func (c *conn) watch() {
	if c.watching.CompareAndSwap(1, 2) {
		go c.watchHangUp()
	}
}

// watchHangUp reads the connection while a request runs. An end or an
// error there is the client hanging up, which cancels the request's
// context; a byte is the next request's first.
func (c *conn) watchHangUp() {
	n, err := c.nc.Read(c.stash[:])
	c.stashed = n == 1
	if n == 0 && !errors.Is(err, os.ErrDeadlineExceeded) {
		c.hungUp.Store(true)
		if r := c.cur; r != nil {
			if a := r.armed.Load(); a != nil {
				a.cancel()
			}
		}
	}
	c.watched <- struct{}{}
}

// body is a request's body on its connection: a declared length, or
// chunked.
type body struct {
	c       *conn
	lr      io.LimitedReader // a declared length's remainder, on in.R
	chunked io.Reader        // the chunked body on in.R; nil for a declared length
	done    bool             // read to its end, a chunked body's trailer included
	expect  bool             // 100 Continue is owed before the first read
}

func (b *body) Read(p []byte) (n int, err error) {
	if b.done {
		return 0, io.EOF
	}
	if b.expect {
		b.expect = false
		if _, err := io.WriteString(b.c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	if b.chunked == nil {
		if n, err = b.lr.Read(p); err == io.EOF {
			return n, io.ErrUnexpectedEOF // the connection ended first
		}
		b.done = b.lr.N == 0
	} else if n, err = b.chunked.Read(p); err == io.EOF {
		err = skipTrailer(&b.c.in)
		b.done = err == nil
	}
	if b.done {
		b.c.watching.Store(1)
		return n, io.EOF
	}
	return n, err
}

// drain reads what the handler left of the body, at most maxDrain
// bytes, so that the connection can carry the next request, and reports
// whether the body ended. A body the client holds back for 100 Continue
// is not asked for.
func (b *body) drain() bool {
	if !b.done && !b.expect && (b.chunked != nil || b.lr.N <= maxDrain) {
		io.CopyN(io.Discard, b, maxDrain+1)
	}
	return b.done
}

// readRequest parses one request head from h into r, keeping what the
// routes read. It is stricter than http.ReadRequest, its test reference:
// HTTP/1.1 or 1.0 only, an origin-form target, h's field rules, and no
// transfer coding in HTTP/1.0. A head it refuses is an error wrapping
// blob.ErrBadOption, or errHeadTooLarge; one that ends first, io.EOF
// before its first byte and io.ErrUnexpectedEOF after.
func readRequest(h *wire.Head, r *request) error {
	line, err := h.Start()
	if err != nil {
		return err
	}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	rawPath, query, _ := bytes.Cut(target, []byte("?"))
	r.http10 = string(proto) == "HTTP/1.0"
	if !ok1 || !ok2 || len(method) == 0 || bytes.ContainsFunc(method, wire.NotToken) ||
		!r.http10 && string(proto) != "HTTP/1.1" || len(rawPath) == 0 || rawPath[0] != '/' ||
		bytes.ContainsFunc(target, func(b rune) bool { return b < 0x20 || b == 0x7f }) {
		return h.Malformed("request line", line)
	}
	for _, m := range [...]string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete} {
		if string(method) == m {
			r.method = m
		}
	}
	if r.method == "" {
		r.method = string(method)
	}
	if r.path, err = url.PathUnescape(string(rawPath)); err != nil {
		return h.Malformed("request target", line)
	}
	r.mode = queryValue(string(query), "mode")

	for h.Next() {
		switch name, v := h.Name, h.Value; {
		case wire.Named(name, "Host") && !h.First(1):
			return h.Malformed("Host", v)
		case wire.Named(name, "Expect"):
			r.expect = !r.http10 && wire.Named(v, "100-continue")
		case wire.Named(name, "Range") && h.First(2):
			r.rng = string(v)
		case wire.Named(name, wire.HeaderVersion) && h.First(4):
			r.version = string(v)
		case wire.Named(name, wire.HeaderOpen) && h.First(8):
			r.open = len(v) > 0
		case wire.Named(name, wire.HeaderMetaBytes) && h.First(16):
			r.metaBytes = string(v)
		case wire.Named(name, wire.HeaderSize) && h.First(32):
			r.size = string(v)
		}
	}
	if h.Err == nil && h.Chunked && r.http10 {
		return fmt.Errorf("%w: Transfer-Encoding in an HTTP/1.0 request", blob.ErrBadOption)
	}
	r.chunked, r.close = h.Chunked, h.Close || r.http10 && !h.KeepAlive
	if r.length = max(h.Length, 0); r.chunked {
		r.length = -1
	}
	return h.Err
}

// skipTrailer reads a chunked body's trailer section on what the head left.
func skipTrailer(h *wire.Head) error {
	for {
		if line, err := h.Line(); err != nil || len(line) == 0 {
			return err
		}
	}
}

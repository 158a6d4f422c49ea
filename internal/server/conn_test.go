package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/server/wire"
	"repro/internal/units"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// serveOn runs srv.Serve on a loopback listener and returns its base
// URL. Cleanup shuts it down and waits for Serve to return.
func serveOn(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve = %v, want http.ErrServerClosed", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// FuzzRequestHead holds readRequest, Serve's head parser, to net/http's
// http.ReadRequest, which parsed fragserve's requests before Serve did.
// Neither may panic. A head readRequest refuses is an error wrapping
// blob.ErrBadOption (a 400), errHeadTooLarge (a 431), or io.EOF or
// io.ErrUnexpectedEOF when the bytes end first. Where both accept a
// head they must agree on the method, the path, the mode query value,
// the body's framing (declared length or chunked), whether the
// connection may be kept, Range and every X-Blob-* value the routes
// read; where both then read the body to its end, on its bytes.
// readRequest is stricter than net/http (HTTP/1.1 and HTTP/1.0 only, an
// origin-form target, one line per field, no space before a colon, no
// leading zero in Content-Length, no transfer coding but chunked and
// none in HTTP/1.0), so it may refuse what ReadRequest accepts; a head
// it accepts and ReadRequest refuses must fall in a class of
// readRequestOnly.
//
// The seed corpus in testdata/fuzz/FuzzRequestHead holds the request of
// every internal/client call as it sends it (client-*), requests as
// net/http's Request.Write words them (nethttp-*, a chunked PUT among
// them), and malformed, truncated and oversized heads.
func FuzzRequestHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		c := &conn{in: wire.Head{R: br, Bad: blob.ErrBadOption, TooLarge: errHeadTooLarge}}
		r := &c.req
		err := readRequest(&c.in, r)
		ref, rerr := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, blob.ErrBadOption) && err != errHeadTooLarge && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("%q: error %v is not one of the parser's", data, err)
			}
			return
		}
		if rerr != nil {
			if !readRequestOnly(data) {
				t.Fatalf("%q: accepted, but http.ReadRequest refuses it: %v", data, rerr)
			}
			return
		}
		length := ref.ContentLength
		if r.chunked != (len(ref.TransferEncoding) > 0) || r.length != length {
			t.Fatalf("%q: length %d chunked %v, net/http %d %v", data, r.length, r.chunked, length, ref.TransferEncoding)
		}
		h := ref.Header
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"method", r.method, ref.Method},
			{"path", r.path, ref.URL.Path},
			{"mode", r.mode, ref.URL.Query().Get("mode")},
			{"close", r.close, ref.Close},
			{"Range", r.rng, h.Get("Range")},
			{wire.HeaderVersion, r.version, h.Get(wire.HeaderVersion)},
			{wire.HeaderOpen, r.open, h.Get(wire.HeaderOpen) != ""},
			{wire.HeaderMetaBytes, r.metaBytes, h.Get(wire.HeaderMetaBytes)},
			{wire.HeaderSize, r.size, h.Get(wire.HeaderSize)},
		} {
			if c.got != c.want {
				t.Fatalf("%q: %s %v, net/http %v", data, c.name, c.got, c.want)
			}
		}
		b := &body{c: c, lr: io.LimitedReader{R: br, N: r.length}, done: r.length == 0}
		if r.chunked {
			b.chunked = httputil.NewChunkedReader(br)
		}
		mine, merr := io.ReadAll(b)
		theirs, terr := io.ReadAll(ref.Body)
		if merr == nil && terr == nil && !bytes.Equal(mine, theirs) {
			t.Fatalf("%q: body %q, net/http %q", data, mine, theirs)
		}
	})
}

// readRequestOnly reports whether a head http.ReadRequest refuses falls
// in a class readRequest may accept. The one class: a Trailer field
// declaring Content-Length, Transfer-Encoding or Trailer. net/http
// refuses the declaration on a chunked body; readRequest reads no
// Trailer field and skips a chunked body's trailer section, so a
// declaration cannot change how it frames a body. The head is in the
// class if net/http accepts it once its Trailer lines are dropped.
func readRequestOnly(data []byte) bool {
	var kept []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasPrefix(bytes.ToLower(line), []byte("trailer:")) {
			kept = append(kept, line...)
		}
	}
	_, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(kept)))
	return err == nil
}

// FuzzParseRange: parseRange never panics, fails only with
// ErrOutOfRange (a start at or past the end), and a range it grants
// lies inside the object and is what RFC 9110 makes of the header. The
// seed corpus in testdata/fuzz/FuzzParseRange holds each form: a middle,
// suffix and open-ended range, ends past the object, and malformed ones.
func FuzzParseRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			size = -(size + 1)
		}
		off, length, ok, err := parseRange(h, size)
		if err != nil {
			if ok || !errors.Is(err, blob.ErrOutOfRange) {
				t.Fatalf("parseRange(%q, %d) = %v, %v", h, size, ok, err)
			}
			return
		}
		if !ok {
			return
		}
		if off < 0 || length < 1 || off >= size || length > size-off {
			t.Fatalf("parseRange(%q, %d) = [%d, +%d) outside the object", h, size, off, length)
		}
		spec := strings.TrimSpace(strings.TrimPrefix(h, "bytes="))
		first, last, _ := strings.Cut(spec, "-")
		if first == "" {
			if n, _ := strconv.ParseInt(last, 10, 64); off+length != size || length != min(n, size) {
				t.Fatalf("suffix %q of %d: [%d, +%d)", h, size, off, length)
			}
			return
		}
		if start, _ := strconv.ParseInt(first, 10, 64); off != start {
			t.Fatalf("%q of %d: offset %d", h, size, off)
		}
		if end, err := strconv.ParseInt(last, 10, 64); err == nil && off+length-1 != min(end, size-1) ||
			last == "" && off+length != size {
			t.Fatalf("%q of %d: [%d, +%d)", h, size, off, length)
		}
	})
}

// rawDoor is one front door reached over a raw TCP connection, so both
// doors see the very same bytes.
type rawDoor struct {
	t    *testing.T
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

// roundTrip sends raw and reads the response to a request of method;
// after a response that closes, the next call redials.
func (d *rawDoor) roundTrip(method string, raw []byte) (*http.Response, []byte) {
	d.t.Helper()
	if d.nc == nil {
		nc, err := net.Dial("tcp", d.addr)
		if err != nil {
			d.t.Fatal(err)
		}
		d.nc, d.br = nc, bufio.NewReader(nc)
	}
	if _, err := d.nc.Write(raw); err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.ReadResponse(d.br, &http.Request{Method: method})
	if err != nil {
		d.t.Fatalf("%q: %v", raw, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	if resp.Close {
		d.nc.Close()
		d.nc = nil
	}
	return resp, body
}

// TestFrontDoorsAgree sends every route, its errors included, through
// Serve and through ServeHTTP under net/http, each over a store of its
// own that sees the same operations, and requires the same status, the
// same header fields (Date's value aside) and the same body. Each server
// times its requests on the wall clock, so /metrics and /report agree in
// every metric name, count and error counter but not in their *_ns
// fields, nor then in Content-Length.
func TestFrontDoorsAgree(t *testing.T) {
	newSrv := func() *Server {
		srv, err := New(dataStore(t), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	ref := httptest.NewServer(newSrv())
	t.Cleanup(ref.Close)
	own := serveOn(t, newSrv())
	doors := []*rawDoor{
		{t: t, addr: strings.TrimPrefix(ref.URL, "http://")},
		{t: t, addr: strings.TrimPrefix(own, "http://")},
	}
	t.Cleanup(func() {
		for _, d := range doors {
			if d.nc != nil {
				d.nc.Close()
			}
		}
	})
	data := make([]byte, 300*units.KB)
	for i := range data {
		data[i] = byte(i % 251)
	}
	chunked := func(b []byte) string {
		return fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(b), b)
	}
	steps := []struct {
		method, target, hdr, body string
	}{
		{"PUT", "/v1/blobs/a?mode=create", "", string(data)},
		{"PUT", "/v1/blobs/a?mode=create", "", "x"},
		{"GET", "/v1/blobs/a", "", ""},
		{"GET", "/v1/blobs/a", "Range: bytes=1000-1999\r\n", ""},
		{"GET", "/v1/blobs/a", "Range: bytes=-256\r\n", ""},
		{"GET", "/v1/blobs/a", "Range: bytes=5000-\r\n", ""},
		{"GET", "/v1/blobs/a", "Range: bytes=999999999-\r\n", ""},
		{"GET", "/v1/blobs/a", "Range: bytes=banana\r\n", ""},
		{"HEAD", "/v1/blobs/a", "", ""},
		{"HEAD", "/v1/blobs/a", "X-Blob-Open: 1\r\n", ""},
		{"HEAD", "/v1/blobs/a", "X-Blob-Version: 1\r\n", ""},
		{"GET", "/v1/blobs/a", "X-Blob-Version: 1\r\nRange: bytes=0-9\r\n", ""},
		{"GET", "/v1/blobs/a", "X-Blob-Version: 99\r\n", ""},
		{"GET", "/v1/blobs/a", "X-Blob-Version: banana\r\n", ""},
		{"HEAD", "/v1/blobs/ghost", "", ""},
		{"GET", "/v1/blobs/ghost", "", ""},
		{"PUT", "/v1/blobs/m", "X-Blob-Meta-Bytes: 65536\r\n", ""},
		{"PUT", "/v1/blobs/m", "X-Blob-Meta-Bytes: lots\r\n", ""},
		{"PUT", "/v1/blobs/m", "X-Blob-Meta-Bytes: -7\r\n", "hello"},
		{"PUT", "/v1/blobs/m", "X-Blob-Meta-Bytes: 5\r\n", "hello"},
		{"PUT", "/v1/blobs/m?mode=bogus", "", "abc"},
		{"PUT", "/v1/blobs/c", "X-Blob-Size: 5\r\nTransfer-Encoding: chunked\r\n", chunked([]byte("hello"))},
		{"PUT", "/v1/blobs/c", "Transfer-Encoding: chunked\r\n", chunked([]byte("hello"))},
		{"GET", "/v1/blobs/c", "", ""},
		{"PUT", "/v1/blobs/a%20b%2Fc%3F?m%6Fde=create", "", "escaped"},
		{"GET", "/v1/blobs/a%20b%2Fc%3F", "", ""},
		{"GET", "/v1/keys", "", ""},
		{"GET", "/v1/stats", "", ""},
		{"GET", "/v1/layout", "", ""},
		{"HEAD", "/v1/stats", "", ""},
		{"GET", "/metrics", "", ""},
		{"GET", "/report", "", ""},
		{"GET", "/healthz", "", ""},
		{"GET", "/nope", "", ""},
		{"POST", "/v1/keys", "", "x"},
		{"PATCH", "/v1/blobs/a", "", ""},
		{"DELETE", "/v1/blobs/a", "", ""},
		{"DELETE", "/v1/blobs/a", "", ""},
		{"GET", "/v1/stats", "Connection: close\r\n", ""},
		{"GET", "/v1/stats HTTP/1.0", "", ""},
		{"GET", "/v1/stats HTTP/1.0", "Connection: keep-alive\r\n", ""},
	}
	for _, st := range steps {
		target, proto, ok := strings.Cut(st.target, " ")
		if !ok {
			proto = "HTTP/1.1"
		}
		raw := fmt.Sprintf("%s %s %s\r\nHost: x\r\n%s", st.method, target, proto, st.hdr)
		if st.body != "" && !strings.Contains(st.hdr, "chunked") {
			raw += "Content-Length: " + strconv.Itoa(len(st.body)) + "\r\n"
		}
		raw += "\r\n" + st.body
		want, wantBody := doors[0].roundTrip(st.method, []byte(raw))
		got, gotBody := doors[1].roundTrip(st.method, []byte(raw))
		what := st.method + " " + st.target + " " + strings.ReplaceAll(st.hdr, "\r\n", "; ")
		if got.StatusCode != want.StatusCode {
			t.Errorf("%s: status %d, net/http %d", what, got.StatusCode, want.StatusCode)
		}
		for _, h := range []http.Header{got.Header, want.Header} {
			if h.Get("Date") == "" {
				t.Errorf("%s: no Date", what)
			}
			h.Del("Date")
			if target == wire.PathMetrics || target == wire.PathReport {
				h.Del("Content-Length")
			}
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("%s: header\n%v\nnet/http\n%v", what, got.Header, want.Header)
		}
		if norm := normalize[target]; norm != nil && want.StatusCode == http.StatusOK {
			gotBody, wantBody = norm(t, gotBody), norm(t, wantBody)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: body %.200q, net/http %.200q", what, gotBody, wantBody)
		}
	}
}

// normalize makes the bodies of some routes comparable: the store lists
// keys in no set order, and a report's created_at and every metric's
// *_ns fields are the wall clock's.
var normalize = map[string]func(*testing.T, []byte) []byte{
	wire.PathKeys: func(t *testing.T, body []byte) []byte {
		var v wire.KeysResponse
		decode(t, body, &v)
		slices.Sort(v.Keys)
		return encode(v)
	},
	wire.PathLayout: func(t *testing.T, body []byte) []byte {
		var v []wire.LayoutObject
		decode(t, body, &v)
		slices.SortFunc(v, func(a, b wire.LayoutObject) int { return strings.Compare(a.Key, b.Key) })
		return encode(v)
	},
	wire.PathMetrics: func(t *testing.T, body []byte) []byte {
		var v map[string]any
		decode(t, body, &v)
		zeroNs(v)
		return encode(v)
	},
	wire.PathReport: func(t *testing.T, body []byte) []byte {
		var v map[string]any
		decode(t, body, &v)
		delete(v, "created_at")
		zeroNs(v)
		return encode(v)
	},
}

// zeroNs zeroes every field named *_ns in a decoded JSON value.
func zeroNs(v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if strings.HasSuffix(k, "_ns") {
				v[k] = 0
			} else {
				zeroNs(e)
			}
		}
	case []any:
		for _, e := range v {
			zeroNs(e)
		}
	}
}

func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%q: %v", body, err)
	}
}

func encode(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// rawClient sends canned requests on one keep-alive connection and
// reads their bodiless responses into a fixed buffer, allocating
// nothing, so that AllocsPerRun counts only the server's allocations.
type rawClient struct {
	nc  net.Conn
	buf [4096]byte
}

func dialRaw(t testing.TB, url string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{nc: nc}
}

// do sends req and returns the status line and header of the response,
// which must have no body.
func (c *rawClient) do(tb testing.TB, req []byte) []byte {
	if _, err := c.nc.Write(req); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for !bytes.HasSuffix(c.buf[:n], []byte("\r\n\r\n")) {
		m, err := c.nc.Read(c.buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += m
	}
	if !bytes.HasPrefix(c.buf[:n], []byte("HTTP/1.1 200 ")) {
		tb.Fatalf("%q: %q", req, c.buf[:n])
	}
	return c.buf[:n]
}

// servedMetaRequests are the metadata-mode GET, HEAD and PUT (replace)
// of object "m" as a keep-alive client sends them.
var servedMetaRequests = map[string][]byte{
	"GET":  []byte("GET /v1/blobs/m HTTP/1.1\r\nHost: x\r\n\r\n"),
	"HEAD": []byte("HEAD /v1/blobs/m HTTP/1.1\r\nHost: x\r\n\r\n"),
	"PUT":  []byte("PUT /v1/blobs/m?mode=replace HTTP/1.1\r\nHost: x\r\nX-Blob-Meta-Bytes: 65536\r\nContent-Length: 0\r\n\r\n"),
}

// TestServeConnAllocationBudget pins what Serve allocates per warm
// keep-alive request, every request timed into the server's registry:
// budgets are the measured count plus 2, 2 / 2 / 7 (the key, the PUT's
// meta-bytes value, the store's writer), where
// ServeHTTP behind net/http's server allocates 24 / 21 / 23 for the same
// requests without their sockets (TestRequestPathAllocationBudget). It also pins that a request runs on
// its connection's goroutine: while the store serves a HEAD, the
// process has as many goroutines as while the connection is idle.
func TestServeConnAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newServedMeta(t)
	c := dialRaw(t, serveOn(t, m.srv))
	for _, tc := range []struct {
		method string
		budget float64
	}{{"GET", 4}, {"HEAD", 4}, {"PUT", 9}} {
		req := servedMetaRequests[tc.method]
		c.do(t, req)
		n := testing.AllocsPerRun(500, func() { c.do(t, req) })
		if n > tc.budget {
			t.Errorf("%s: %.1f allocs per request, budget %.0f", tc.method, n, tc.budget)
		}
	}

	var during int
	hooked, err := New(&hookStore{Store: m.srv.store, hook: func(context.Context) error {
		during = runtime.NumGoroutine()
		return nil
	}}, m.srv.cfg)
	if err != nil {
		t.Fatal(err)
	}
	hc := dialRaw(t, serveOn(t, hooked))
	hc.do(t, servedMetaRequests["HEAD"])
	for i := 0; i < 20; i++ {
		idle := runtime.NumGoroutine()
		hc.do(t, servedMetaRequests["HEAD"])
		if during != idle {
			t.Fatalf("HEAD %d: %d goroutines while the store ran it, %d with the connection idle", i, during, idle)
		}
	}
}

// BenchmarkServeConn is BenchmarkServeRequest's requests through Serve
// on a loopback keep-alive connection: the server's parse, routing and
// one-writev response, plus the two sockets.
func BenchmarkServeConn(b *testing.B) {
	m := newServedMeta(b)
	c := dialRaw(b, serveOn(b, m.srv))
	for _, method := range []string{"GET", "HEAD", "PUT"} {
		req := servedMetaRequests[method]
		b.Run(method, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.do(b, req)
			}
		})
	}
}

// TestServeRefusesBadHeads: a head line or a header block past wire.MaxHead
// is answered 431, a head the parser refuses 400 with a typed error, and
// each response is well formed and followed by a closed connection.
func TestServeRefusesBadHeads(t *testing.T) {
	url := serveOn(t, newServedMeta(t).srv)
	for _, tc := range []struct {
		name, head string
		status     int
		errName    string
	}{
		{"long line", "GET /v1/blobs/" + strings.Repeat("k", wire.MaxHead) + " HTTP/1.1\r\n\r\n", 431, ""},
		{"large block", "GET /v1/stats HTTP/1.1\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 1000)+"\r\n", 70) + "\r\n", 431, ""},
		{"obs-fold", "GET /v1/stats HTTP/1.1\r\nX-Blob-Version: 1\r\n 2\r\n\r\n", 400, "badoption"},
		{"bad version", "GET /v1/stats HTTP/2.0\r\n\r\n", 400, "badoption"},
		{"conflicting lengths", "PUT /v1/blobs/k HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab", 400, "badoption"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := io.WriteString(nc, tc.head); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(nc)
			resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != tc.status || resp.Header.Get(wire.HeaderError) != tc.errName || !resp.Close {
				t.Fatalf("status %d %q close %v body %q (%v), want %d %q and a close",
					resp.StatusCode, resp.Header.Get(wire.HeaderError), resp.Close, body, err, tc.status, tc.errName)
			}
			if n, err := br.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Fatalf("connection still open after the response: %d, %v", n, err)
			}
		})
	}
}

// servePut sends one raw PUT head and body to url over a connection of
// its own, half-closes it when cut is set (the client hangs up mid-body),
// and returns the response's status and X-Blob-Error.
func servePut(t *testing.T, url, target, hdr, body string, cut bool) (int, string) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "PUT "+target+" HTTP/1.1\r\nHost: x\r\n"+hdr+"\r\n"+body); err != nil {
		t.Fatal(err)
	}
	if cut {
		if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(nc), &http.Request{Method: "PUT"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(wire.HeaderError)
}

// TestMetaBytesPutRefusesABody: a metadata-only PUT declares its bytes in
// X-Blob-Meta-Bytes and carries no body. A negative count is refused
// badsize, a body (declared or chunked) badoption, and neither refusal
// leaves an object behind.
func TestMetaBytesPutRefusesABody(t *testing.T) {
	store := dataStore(t)
	srv, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	url := serveOn(t, srv)
	for _, tc := range []struct {
		hdr, body, errName string
	}{
		{"X-Blob-Meta-Bytes: -7\r\nContent-Length: 5\r\n", "hello", "badsize"},
		{"X-Blob-Meta-Bytes: -7\r\nContent-Length: 0\r\n", "", "badsize"},
		{"X-Blob-Meta-Bytes: 5\r\nContent-Length: 5\r\n", "hello", "badoption"},
		{"X-Blob-Meta-Bytes: 5\r\nTransfer-Encoding: chunked\r\n", "5\r\nhello\r\n0\r\n\r\n", "badoption"},
	} {
		status, errName := servePut(t, url, "/v1/blobs/m", tc.hdr, tc.body, false)
		if status != http.StatusBadRequest || errName != tc.errName {
			t.Errorf("%q: %d %q, want 400 %q", tc.hdr, status, errName, tc.errName)
		}
		if _, err := store.Stat(context.Background(), "m"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("%q: Stat after the refusal = %v, want ErrNotFound", tc.hdr, err)
		}
	}
}

// TestTruncatedPutLeavesOldVersion: a PUT that declares 10 body bytes,
// sends 3 and half-closes is answered 400 badsize, and the store keeps
// what it had: a replaced key its version and bytes, a created one
// nothing.
func TestTruncatedPutLeavesOldVersion(t *testing.T) {
	ctx := context.Background()
	store := dataStore(t)
	srv, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	url := serveOn(t, srv)
	old := []byte("original bytes")
	if err := blob.Put(ctx, store, "a", int64(len(old)), old); err != nil {
		t.Fatal(err)
	}
	before, err := store.Stat(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/v1/blobs/a?mode=replace", "/v1/blobs/b?mode=create"} {
		status, errName := servePut(t, url, target, "Content-Length: 10\r\n", "abc", true)
		if status != http.StatusBadRequest || errName != "badsize" {
			t.Errorf("%s cut short: %d %q, want 400 badsize", target, status, errName)
		}
	}
	after, err := store.Stat(ctx, "a")
	if err != nil || after.Version != before.Version {
		t.Fatalf("replaced key after a cut PUT: %+v, %v; want version %d", after, err, before.Version)
	}
	if _, data, err := blob.Get(ctx, store, "a"); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("replaced key after a cut PUT reads %q, %v; want %q", data, err, old)
	}
	if _, err := store.Stat(ctx, "b"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("created key after a cut PUT: Stat = %v, want ErrNotFound", err)
	}
}

// TestShutdown pins Server.Shutdown: it closes the listener and the idle
// connections at once, lets a running request finish and answers it
// with Connection: close, then returns nil and Serve returns
// http.ErrServerClosed. With its context ended first, it closes what is
// left and returns the context's error. TestMain's leakcheck covers the
// connection goroutines.
func TestShutdown(t *testing.T) {
	for _, expire := range []bool{false, true} {
		t.Run(fmt.Sprintf("context ends first=%v", expire), func(t *testing.T) {
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			defer release()
			store := dataStore(t)
			if err := blob.Put(context.Background(), store, "a", 4*units.KB, make([]byte, 4*units.KB)); err != nil {
				t.Fatal(err)
			}
			srv, err := New(&hookStore{Store: store, hook: func(context.Context) error {
				entered <- struct{}{}
				<-gate
				return nil
			}}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()

			idle := dialRaw(t, "http://"+ln.Addr().String())
			idle.do(t, []byte("HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"))
			busy := dialRaw(t, "http://"+ln.Addr().String())
			if _, err := io.WriteString(busy.nc, "HEAD /v1/blobs/a HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			<-entered

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stopped := make(chan error, 1)
			go func() { stopped <- srv.Shutdown(ctx) }()
			if n, err := idle.nc.Read(idle.buf[:]); n != 0 || err == nil {
				t.Fatalf("idle connection read %d, %v after Shutdown, want it closed", n, err)
			}
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
			}
			if nc, err := net.Dial("tcp", ln.Addr().String()); err == nil {
				nc.Close()
				t.Fatal("listener still accepts after Shutdown")
			}
			select {
			case err := <-stopped:
				t.Fatalf("Shutdown returned %v with a request running", err)
			case <-time.After(20 * time.Millisecond):
			}
			if expire {
				cancel()
				if err := <-stopped; !errors.Is(err, context.Canceled) {
					t.Fatalf("Shutdown = %v, want context.Canceled", err)
				}
				release()
				if n, err := busy.nc.Read(busy.buf[:]); n != 0 || err == nil {
					t.Fatalf("running request's connection read %d, %v, want it closed", n, err)
				}
				return
			}
			release()
			resp, err := http.ReadResponse(bufio.NewReader(busy.nc), &http.Request{Method: "HEAD"})
			if err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
				t.Fatalf("running request: %v, %v; want 200 with Connection: close", resp, err)
			}
			if err := <-stopped; err != nil {
				t.Fatalf("Shutdown = %v", err)
			}
		})
	}
}

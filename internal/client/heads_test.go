package client_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/extent"
	"repro/internal/server/wire"
)

// cannedServer answers each request on a raw listener with a fixed
// response for its route, as internal/server words it, and allocates
// nothing per request. With record set it also hands record the raw
// bytes of every request it reads.
type cannedServer struct {
	ln     net.Listener
	url    string
	record func(raw []byte)
	wg     sync.WaitGroup
}

// The canned responses: an object of 65536 logical bytes at version 1,
// no payload kept.
var (
	cannedStats = []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Blob-Clock-Ns: 1\r\nContent-Length: 19\r\n\r\n{\"name\":\"canned\"}\r\n")
	cannedKeys  = []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Blob-Clock-Ns: 1\r\nContent-Length: 12\r\n\r\n{\"keys\":[]}\n")
	cannedList  = []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Blob-Clock-Ns: 1\r\nContent-Length: 3\r\n\r\n[]\n")
	cannedHead  = []byte("HTTP/1.1 200 OK\r\nX-Blob-Clock-Ns: 1\r\nX-Blob-Size: 65536\r\nX-Blob-Version: 1\r\nDate: Fri, 16 Oct 2026 13:44:08 GMT\r\n\r\n")
	cannedGet   = []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nContent-Type: application/octet-stream\r\nX-Blob-Clock-Ns: 1\r\nX-Blob-Meta: 1\r\nX-Blob-Size: 65536\r\nDate: Fri, 16 Oct 2026 13:44:08 GMT\r\n\r\n")
	cannedRange = []byte("HTTP/1.1 206 Partial Content\r\nContent-Length: 0\r\nContent-Range: bytes 0-99/65536\r\nContent-Type: application/octet-stream\r\nX-Blob-Clock-Ns: 1\r\nX-Blob-Meta: 1\r\nX-Blob-Size: 65536\r\nDate: Fri, 16 Oct 2026 13:44:08 GMT\r\n\r\n")
	cannedEmpty = []byte("HTTP/1.1 200 OK\r\nX-Blob-Clock-Ns: 1\r\nDate: Fri, 16 Oct 2026 13:44:08 GMT\r\nContent-Length: 0\r\n\r\n")
)

func newCannedServer(t testing.TB, record func(raw []byte)) *cannedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &cannedServer{ln: ln, url: "http://" + ln.Addr().String(), record: record}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer nc.Close()
				s.serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

// serve answers requests on nc until the client closes it.
func (s *cannedServer) serve(nc net.Conn) {
	br := bufio.NewReader(nc)
	var raw []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		raw = append(raw[:0], line...)
		resp, n := cannedResponse(line), 0
		for len(line) > 2 { // up to the CRLF that ends the head
			if line, err = br.ReadSlice('\n'); err != nil {
				return
			}
			raw = append(raw, line...)
			name, v, _ := bytes.Cut(line, []byte(":"))
			switch {
			case bytes.EqualFold(name, []byte("Content-Length")):
				for _, d := range bytes.TrimSpace(v) {
					n = n*10 + int(d-'0')
				}
			case bytes.EqualFold(name, []byte("Range")):
				resp = cannedRange
			}
		}
		if s.record != nil {
			body := make([]byte, n)
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
			s.record(append(raw, body...))
		} else if _, err := br.Discard(n); err != nil {
			return
		}
		if _, err := nc.Write(resp); err != nil {
			return
		}
	}
}

// cannedResponse picks the response to a request line.
func cannedResponse(line []byte) []byte {
	method, target, _ := bytes.Cut(line, []byte(" "))
	switch {
	case bytes.HasPrefix(target, []byte(wire.PathStats)):
		return cannedStats
	case bytes.HasPrefix(target, []byte(wire.PathKeys)):
		return cannedKeys
	case bytes.HasPrefix(target, []byte(wire.PathLayout)):
		return cannedList
	case string(method) == http.MethodHead:
		return cannedHead
	case string(method) == http.MethodGet:
		return cannedGet
	}
	return cannedEmpty
}

// escaped is a key as the client put it into a request path before it
// wrote heads itself: each segment path-escaped, the slashes kept.
func escaped(key string) string {
	parts := strings.Split(key, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}

// TestRequestHeadsMatchNetHTTP: every wire call's request, parsed with
// http.ReadRequest, has the method, request URI, Content-Length, wire
// headers and body that http.NewRequest and Request.Write produce for
// the same call — keys that need escaping included. Only User-Agent,
// which no route reads, is left out.
func TestRequestHeadsMatchNetHTTP(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var last []byte
	cs := newCannedServer(t, func(raw []byte) {
		mu.Lock()
		last = bytes.Clone(raw)
		mu.Unlock()
	})
	c, err := client.Dial(cs.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("hello")
	for _, key := range []string{"k", "a b/c%2Fd/ü", "?#", "x;y,z:@&=+$"} {
		blob := wire.PathBlobs + escaped(key)
		for _, call := range []struct {
			name   string
			do     func() error
			method string
			target string
			body   []byte
			hdr    []string
		}{
			{"Stat", func() error { _, err := c.Stat(ctx, key); return err }, "HEAD", blob, nil, nil},
			{"Open", func() error { _, err := c.Open(ctx, key); return err }, "HEAD", blob, nil, []string{wire.HeaderOpen, "1"}},
			{"pinned GET", func() error {
				r, err := c.Open(ctx, key)
				if err == nil {
					_, err = r.ReadAll()
				}
				return err
			}, "GET", blob, nil, []string{wire.HeaderVersion, "1"}},
			{"pinned ranged GET", func() error {
				r, err := c.Open(ctx, key)
				if err == nil {
					_, err = r.ReadAt(0, 100)
				}
				return err
			}, "GET", blob, nil, []string{wire.HeaderVersion, "1", "Range", "bytes=0-99"}},
			{"Fetch", func() error { _, _, err := c.Fetch(ctx, key); return err }, "GET", blob, nil, nil},
			{"FetchAt", func() error { _, err := c.FetchAt(ctx, key, 0, 100); return err }, "GET", blob, nil, []string{"Range", "bytes=0-99"}},
			{"PUT create meta", func() error { return c.Upload(ctx, key, 65536, nil, false) }, "PUT", blob + "?mode=create", nil, []string{wire.HeaderMetaBytes, "65536"}},
			{"PUT replace meta", func() error { return c.Upload(ctx, key, 65536, nil, true) }, "PUT", blob + "?mode=replace", nil, []string{wire.HeaderMetaBytes, "65536"}},
			{"PUT create data", func() error { return c.Upload(ctx, key, 5, data, false) }, "PUT", blob + "?mode=create", data, []string{wire.HeaderSize, "5"}},
			{"PUT replace data", func() error { return c.Upload(ctx, key, 5, data, true) }, "PUT", blob + "?mode=replace", data, []string{wire.HeaderSize, "5"}},
			{"DELETE", func() error { return c.Delete(ctx, key) }, "DELETE", blob, nil, nil},
			{"stats", func() error { c.Usage(); return nil }, "GET", wire.PathStats, nil, nil},
			{"keys", func() error { c.Keys(); return nil }, "GET", wire.PathKeys, nil, nil},
			{"layout", func() error { c.EachObjectRuns(func(string, int64, []extent.Run) {}); return nil }, "GET", wire.PathLayout, nil, nil},
		} {
			if err := call.do(); err != nil {
				t.Fatalf("%s %q: %v", call.name, key, err)
			}
			mu.Lock()
			raw := last
			mu.Unlock()
			got, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
			if err != nil {
				t.Fatalf("%s %q: http.ReadRequest of %q: %v", call.name, key, raw, err)
			}
			var body io.Reader
			if call.body != nil {
				body = bytes.NewReader(call.body)
			}
			req, err := http.NewRequest(call.method, cs.url+call.target, body)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(call.hdr); i += 2 {
				req.Header.Set(call.hdr[i], call.hdr[i+1])
			}
			var buf bytes.Buffer
			if err := req.Write(&buf); err != nil {
				t.Fatal(err)
			}
			want, err := http.ReadRequest(bufio.NewReader(&buf))
			if err != nil {
				t.Fatal(err)
			}
			want.Header.Del("User-Agent")
			gotBody, _ := io.ReadAll(got.Body)
			wantBody, _ := io.ReadAll(want.Body)
			if got.Method != want.Method || got.RequestURI != want.RequestURI || got.Host != want.Host ||
				got.ContentLength != want.ContentLength || !reflect.DeepEqual(got.Header, want.Header) || !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("%s %q: the client wrote %q\nnet/http writes %q", call.name, key, raw, buf.Bytes())
			}
		}
	}
}

// TestEscapedKeysRoundTrip: keys that need escaping reach the server as
// themselves.
func TestEscapedKeysRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := newWireServer(t, dataInner(), nil).c
	keys := []string{"a b/c%2Fd/ü", "?#", "x;y,z:@&=+$"}
	for _, key := range keys {
		if err := c.Upload(ctx, key, int64(len(key)), []byte(key), false); err != nil {
			t.Fatalf("upload %q: %v", key, err)
		}
		if _, data, err := c.Fetch(ctx, key); err != nil || string(data) != key {
			t.Fatalf("fetch %q = %q, %v", key, data, err)
		}
	}
	got := c.Keys()
	slices.Sort(got)
	slices.Sort(keys)
	if !slices.Equal(got, keys) {
		t.Fatalf("keys %q, want %q", got, keys)
	}
}

// TestMalformedResponseDropsConnection: a response head the client cannot
// parse fails the call with ErrBadResponse, the client closes that
// connection, and its next request dials a new one.
func TestMalformedResponseDropsConnection(t *testing.T) {
	ctx := context.Background()
	closed := make(chan struct{})
	w := newWireServer(t, dataInner(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/garbage") {
				h.ServeHTTP(rw, r)
				return
			}
			nc, _, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nX-Blob-Size 5\r\n\r\n")
			io.Copy(io.Discard, nc) // until the client closes it
			nc.Close()
			close(closed)
		})
	})
	c := w.c
	if err := c.Upload(ctx, "k", 3, []byte("abc"), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch(ctx, "garbage"); !errors.Is(err, client.ErrBadResponse) {
		t.Fatalf("fetch answered with a malformed head = %v, want ErrBadResponse", err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the client kept the connection of a malformed response open")
	}
	if _, err := c.Stat(ctx, "k"); err != nil {
		t.Fatalf("request after a malformed response: %v", err)
	}
	if n := w.ln.accepts.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2", n)
	}
}

// TestClientAllocationBudget pins the client's allocations per call on a
// warm connection, against a canned responder that allocates nothing per
// request. Budgets are the measured count plus 2: Stat 2, metadata
// Fetch 2, metadata Upload 3, where net/http's NewRequest, Request.Write
// and ReadResponse made them 26, 27 and 30.
func TestClientAllocationBudget(t *testing.T) {
	ctx := context.Background()
	cs := newCannedServer(t, nil)
	c, err := client.Dial(cs.url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name   string
		budget float64
		do     func() error
	}{
		{"Stat", 4, func() error { _, err := c.Stat(ctx, "obj-1"); return err }},
		{"Fetch", 4, func() error { _, _, err := c.Fetch(ctx, "obj-1"); return err }},
		{"Upload", 5, func() error { return c.Upload(ctx, "obj-1", 65536, nil, true) }},
	} {
		n := testing.AllocsPerRun(200, func() {
			if err := tc.do(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs", tc.name, n)
		if n > tc.budget {
			t.Errorf("%s: %.1f allocs per call, budget %.0f", tc.name, n, tc.budget)
		}
	}
}

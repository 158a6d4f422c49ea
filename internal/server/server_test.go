package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/obs"
	"repro/internal/server/wire"
	"repro/internal/units"
	"repro/internal/vclock"
)

// newTestServer spins a Server over store on a real listener, with
// cleanup that drains every goroutine (leakcheck enforces it).
func newTestServer(t *testing.T, store blob.Store, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		ts.Close()
	})
	return srv, ts, client
}

func dataStore(t *testing.T) blob.Store {
	t.Helper()
	s, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doReq(t *testing.T, client *http.Client, method, url string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFrontDoorRoundTrip pins the stateless path: PUT streams through
// a writer, GET serves the bytes back with size and clock headers,
// HEAD stats, DELETE removes, and every error is typed by header and
// status.
func TestFrontDoorRoundTrip(t *testing.T) {
	srv, ts, client := newTestServer(t, dataStore(t), Config{})
	data := make([]byte, 300*units.KB)
	for i := range data {
		data[i] = byte(i % 251)
	}

	resp := doReq(t, client, "PUT", ts.URL+wire.PathBlobs+"a?mode=create", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if resp.Header.Get(wire.HeaderClock) == "" {
		t.Fatal("PUT response missing clock header")
	}

	resp = doReq(t, client, "GET", ts.URL+wire.PathBlobs+"a", nil)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, data) {
		t.Fatalf("GET status=%d len=%d, want 200 with %d bytes", resp.StatusCode, len(got), len(data))
	}
	if resp.Header.Get(wire.HeaderSize) != strconv.Itoa(len(data)) {
		t.Fatalf("GET size header = %q", resp.Header.Get(wire.HeaderSize))
	}
	// The payload length is declared (not chunked), so the client can
	// read the body into one buffer of the right size.
	if resp.ContentLength != int64(len(data)) {
		t.Fatalf("GET Content-Length = %d, want %d", resp.ContentLength, len(data))
	}

	resp = doReq(t, client, "HEAD", ts.URL+wire.PathBlobs+"a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(wire.HeaderSize) != strconv.Itoa(len(data)) {
		t.Fatalf("HEAD status=%d size=%q", resp.StatusCode, resp.Header.Get(wire.HeaderSize))
	}

	// Typed errors: create-existing is 409/exists, GET missing is
	// 404/notfound.
	resp = doReq(t, client, "PUT", ts.URL+wire.PathBlobs+"a?mode=create", data[:1])
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(wire.HeaderError) != "exists" {
		t.Fatalf("create existing: status=%d err=%q", resp.StatusCode, resp.Header.Get(wire.HeaderError))
	}
	resp = doReq(t, client, "GET", ts.URL+wire.PathBlobs+"ghost", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(wire.HeaderError) != "notfound" {
		t.Fatalf("get missing: status=%d err=%q", resp.StatusCode, resp.Header.Get(wire.HeaderError))
	}

	resp = doReq(t, client, "DELETE", ts.URL+wire.PathBlobs+"a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp = doReq(t, client, "GET", ts.URL+wire.PathBlobs+"a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", resp.StatusCode)
	}

	// The server's own registry timed each success and counted each
	// typed failure by op and sentinel.
	snap := srv.reg.Snapshot()
	for name, want := range map[string]int64{"serve.put": 1, "serve.get": 1, "serve.head": 1, "serve.delete": 1} {
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{"serve.put.err.exists": 1, "serve.get.err.notfound": 2} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestStatsWireNames pins the JSON names of GET /v1/stats, which CI's
// server-smoke job and readers outside this repository parse, and that
// the body carries the store's Usage.
func TestStatsWireNames(t *testing.T) {
	store := dataStore(t)
	_, ts, client := newTestServer(t, store, Config{})
	ctx := context.Background()
	for _, size := range []int64{64 * units.KB, 96 * units.KB} {
		if err := blob.Replace(ctx, store, "a", size, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	resp := doReq(t, client, "GET", ts.URL+wire.PathStats, nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d, %v", resp.StatusCode, err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var names []string
	for tok, err := dec.Token(); err == nil; tok, err = dec.Token() {
		if name, ok := tok.(string); ok && dec.More() {
			names = append(names, name)
			if _, err := dec.Token(); err != nil { // the value
				t.Fatal(err)
			}
		}
	}
	want := []string{"name", "object_count", "live_bytes", "retired_bytes", "free_bytes", "capacity_bytes", "clock_ns"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("/v1/stats names %v, want %v (body %s)", names, want, body)
	}
	var st wire.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if u := store.Usage(); st.Usage != u || st.Objects != 1 || st.RetiredBytes != 64*units.KB {
		t.Fatalf("/v1/stats carries %+v, the store %+v", st.Usage, u)
	}
}

// TestRangeRequests pins ranged GETs riding blob.Reader.ReadAt:
// correct bytes with 206 + Content-Range, suffix and open-ended forms,
// and a typed 416 for a range past EOF.
func TestRangeRequests(t *testing.T) {
	_, ts, client := newTestServer(t, dataStore(t), Config{})
	data := make([]byte, 1*units.MB)
	for i := range data {
		data[i] = byte(i % 249)
	}
	resp := doReq(t, client, "PUT", ts.URL+wire.PathBlobs+"a", data)
	resp.Body.Close()

	get := func(rng string) (*http.Response, []byte) {
		req, _ := http.NewRequest("GET", ts.URL+wire.PathBlobs+"a", nil)
		req.Header.Set("Range", rng)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := get("bytes=1000-1999")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[1000:2000]) {
		t.Fatalf("mid range: status=%d len=%d", resp.StatusCode, len(body))
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 1000-1999/%d", len(data)) {
		t.Fatalf("Content-Range = %q", cr)
	}

	resp, body = get(fmt.Sprintf("bytes=%d-", len(data)-512))
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[len(data)-512:]) {
		t.Fatalf("open-ended range: status=%d len=%d", resp.StatusCode, len(body))
	}

	resp, body = get("bytes=-256")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[len(data)-256:]) {
		t.Fatalf("suffix range: status=%d len=%d", resp.StatusCode, len(body))
	}

	resp, _ = get(fmt.Sprintf("bytes=%d-", len(data)+10))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable ||
		resp.Header.Get(wire.HeaderError) != "outofrange" {
		t.Fatalf("past-EOF range: status=%d err=%q", resp.StatusCode, resp.Header.Get(wire.HeaderError))
	}

	// A malformed Range header is ignored: whole object, 200.
	resp, body = get("bytes=banana")
	if resp.StatusCode != http.StatusOK || len(body) != len(data) {
		t.Fatalf("malformed range: status=%d len=%d", resp.StatusCode, len(body))
	}
}

// gateStore blocks Open until the gate closes — the deterministic
// saturation fixture: an admitted op holds its admission slot as long
// as the test wants. An Open first sends on entered, when it is set.
type gateStore struct {
	blob.Store
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Store.Open(ctx, key)
}

// TestAdmissionSaturation pins the shed contract exactly: with
// MaxInFlight=1 and MaxQueue=2, ten concurrent reads against a gated
// store resolve as 7 immediate 429s (overloaded), 2 queue-timeout 503s
// (unavailable), and 1 success once the gate opens. The pending
// counter makes the split deterministic regardless of arrival order.
func TestAdmissionSaturation(t *testing.T) {
	inner := dataStore(t)
	if err := blob.Put(context.Background(), inner, "a", 64*units.KB, make([]byte, 64*units.KB)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv, ts, client := newTestServer(t, &gateStore{Store: inner, gate: gate}, Config{
		MaxInFlight:  1,
		MaxQueue:     2,
		QueueTimeout: 200 * time.Millisecond,
	})

	const N = 10
	type result struct {
		status int
		errHdr string
	}
	results := make(chan result, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(ts.URL + wire.PathBlobs + "a")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get(wire.HeaderError)}
		}()
	}

	// Release the gate once the queue-timeout refusals have drained:
	// wait for the two 503s and seven 429s, then open.
	counts := map[int]int{}
	hdrs := map[string]int{}
	for i := 0; i < N-1; i++ {
		r := <-results
		counts[r.status]++
		hdrs[r.errHdr]++
	}
	close(gate)
	r := <-results
	counts[r.status]++
	wg.Wait()

	if counts[http.StatusTooManyRequests] != 7 {
		t.Fatalf("429 count = %d, want 7 (counts: %v)", counts[http.StatusTooManyRequests], counts)
	}
	if counts[http.StatusServiceUnavailable] != 2 {
		t.Fatalf("503 count = %d, want 2 (counts: %v)", counts[http.StatusServiceUnavailable], counts)
	}
	if counts[http.StatusOK] != 1 {
		t.Fatalf("200 count = %d, want 1 (counts: %v)", counts[http.StatusOK], counts)
	}
	if hdrs["overloaded"] != 7 || hdrs["unavailable"] != 2 {
		t.Fatalf("error headers = %v, want 7 overloaded + 2 unavailable", hdrs)
	}
	snap := srv.reg.Snapshot()
	if snap.Counters["admission.shed"] != 7 || snap.Counters["admission.timeout"] != 2 {
		t.Fatalf("admission counters = shed:%d timeout:%d, want 7/2",
			snap.Counters["admission.shed"], snap.Counters["admission.timeout"])
	}
}

// TestAdmissionInflightPeak pins the in-flight gauges: N reads held in a
// gated store at once leave admission.inflight_peak at N, and once they
// finish admission.inflight is back to 0 while the peak stays — so a
// /report read after a load still shows how busy it was.
func TestAdmissionInflightPeak(t *testing.T) {
	inner := dataStore(t)
	if err := blob.Put(context.Background(), inner, "a", 64*units.KB, make([]byte, 64*units.KB)); err != nil {
		t.Fatal(err)
	}
	const N = 4
	gate, entered := make(chan struct{}), make(chan struct{})
	srv, ts, client := newTestServer(t, &gateStore{Store: inner, gate: gate, entered: entered}, Config{MaxInFlight: 2 * N})
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(ts.URL + wire.PathBlobs + "a")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d, want 200", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < N; i++ {
		<-entered
	}
	close(gate)
	wg.Wait()
	ts.Close() // returns once every handler, and its release, has run
	gauges := srv.reg.Snapshot().Gauges
	if gauges["admission.inflight_peak"] != N || gauges["admission.inflight"] != 0 {
		t.Fatalf("admission.inflight_peak = %g, admission.inflight = %g; want %d and 0",
			gauges["admission.inflight_peak"], gauges["admission.inflight"], N)
	}
}

// TestRequestDeadline pins the per-request deadline: a request stalled
// in the store past RequestTimeout fails typed as deadline (504).
func TestRequestDeadline(t *testing.T) {
	inner := dataStore(t)
	if err := blob.Put(context.Background(), inner, "a", 64*units.KB, make([]byte, 64*units.KB)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	_, ts, client := newTestServer(t, &gateStore{Store: inner, gate: gate}, Config{
		RequestTimeout: 100 * time.Millisecond,
	})
	resp := doReq(t, client, "GET", ts.URL+wire.PathBlobs+"a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get(wire.HeaderError) != "deadline" {
		t.Fatalf("stalled GET: status=%d err=%q, want 504 deadline",
			resp.StatusCode, resp.Header.Get(wire.HeaderError))
	}
}

// TestVersionedReads pins the read pin of the one-shot protocol: HEAD
// reports the live version, and a GET, ranged GET or HEAD naming it is
// served while it is live and answers 404 notfound once a replace, a
// delete and re-create, or a relocation (CompactObject) has made another
// version live. Versions of a key only grow. A version that does not
// parse is a 400 badoption, never an unpinned read.
func TestVersionedReads(t *testing.T) {
	store := dataStore(t)
	_, ts, client := newTestServer(t, store, Config{})
	send := func(method, key, version, rng string, body []byte) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+wire.PathBlobs+key, rd)
		if err != nil {
			t.Fatal(err)
		}
		if version != "" {
			req.Header.Set(wire.HeaderVersion, version)
		}
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	version := func(key string) uint64 {
		t.Helper()
		resp := send("HEAD", key, "", "", nil)
		v, err := strconv.ParseUint(resp.Header.Get(wire.HeaderVersion), 10, 64)
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("HEAD %s: status=%d version %q", key, resp.StatusCode, resp.Header.Get(wire.HeaderVersion))
		}
		return v
	}
	pinned := []struct{ method, rng string }{{"GET", ""}, {"GET", "bytes=0-99"}, {"HEAD", ""}}
	expect := func(key string, v uint64, status int, errName, when string) {
		t.Helper()
		for _, p := range pinned {
			resp := send(p.method, key, strconv.FormatUint(v, 10), p.rng, nil)
			want := status
			if p.rng != "" && status == http.StatusOK {
				want = http.StatusPartialContent
			}
			if resp.StatusCode != want || resp.Header.Get(wire.HeaderError) != errName {
				t.Fatalf("%s: %s %s pinned to %d (range %q): status=%d err=%q, want %d %q",
					when, p.method, key, v, p.rng, resp.StatusCode, resp.Header.Get(wire.HeaderError), want, errName)
			}
		}
	}
	put := func(key string) {
		t.Helper()
		if resp := send("PUT", key, "", "", make([]byte, 64*units.KB)); resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s = %d", key, resp.StatusCode)
		}
	}
	// next checks that key's live version is newer than old and served.
	next := func(key string, old uint64, after string) uint64 {
		t.Helper()
		v := version(key)
		if v <= old {
			t.Fatalf("after %s: version %d, want > %d", after, v, old)
		}
		expect(key, old, http.StatusNotFound, "notfound", "after "+after)
		expect(key, v, http.StatusOK, "", "live after "+after)
		return v
	}

	put("a")
	v := version("a")
	expect("a", v, http.StatusOK, "", "live")
	put("a")
	v = next("a", v, "replace")
	if resp := send("DELETE", "a", "", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	expect("a", v, http.StatusNotFound, "notfound", "delete")
	put("a")
	next("a", v, "delete and re-create")

	// Interleaved streams fragment "big", so CompactObject has runs to
	// move and re-publishes it as a new version.
	ctx := context.Background()
	big, err := store.Create(ctx, "big", 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := store.Create(ctx, "sibling", 256*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 256*units.KB; off += 64 * units.KB {
		for _, w := range []blob.Writer{big, sib} {
			if err := w.Append(64*units.KB, make([]byte, 64*units.KB)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range []blob.Writer{big, sib} {
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	v = version("big")
	if moved, err := store.(blob.Rewriter).CompactObject(ctx, "big"); err != nil || moved == 0 {
		t.Fatalf("CompactObject = %d, %v; want runs moved", moved, err)
	}
	next("big", v, "CompactObject")

	for _, p := range pinned {
		resp := send(p.method, "big", "banana", p.rng, nil)
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(wire.HeaderError) != "badoption" {
			t.Fatalf("%s with a malformed version: status=%d err=%q, want 400 badoption",
				p.method, resp.StatusCode, resp.Header.Get(wire.HeaderError))
		}
	}
}

// TestMetricsAndReport pins the observability endpoints: /metrics is a
// wall-unit PhaseReport with serve histograms, /report is a
// schema-valid RunReport.
func TestMetricsAndReport(t *testing.T) {
	_, ts, client := newTestServer(t, dataStore(t), Config{})
	resp := doReq(t, client, "PUT", ts.URL+wire.PathBlobs+"a", make([]byte, 32*units.KB))
	resp.Body.Close()
	resp = doReq(t, client, "GET", ts.URL+wire.PathBlobs+"a", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp = doReq(t, client, "GET", ts.URL+wire.PathMetrics, nil)
	var phase obs.PhaseReport
	if err := json.NewDecoder(resp.Body).Decode(&phase); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if phase.TimeUnit != obs.UnitWall {
		t.Fatalf("metrics time_unit = %q, want wall_ns", phase.TimeUnit)
	}
	if h := phase.Histograms["serve.get"]; h == nil || h.Count < 1 {
		t.Fatalf("serve.get histogram missing from metrics: %+v", phase.Histograms)
	}
	if h := phase.Histograms["serve.put"]; h == nil || h.Count < 1 {
		t.Fatal("serve.put histogram missing from metrics")
	}

	resp = doReq(t, client, "GET", ts.URL+wire.PathReport, nil)
	var report map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if report["schema"] != obs.ReportSchema {
		t.Fatalf("report schema = %v, want %s", report["schema"], obs.ReportSchema)
	}
	exps, _ := report["experiments"].([]any)
	if len(exps) != 1 {
		t.Fatalf("report experiments = %d, want 1", len(exps))
	}
}

// TestMetricsCarryAdmissionBeforeAnyShed pins that a fresh server's
// /metrics already names its admission counters and gauge, at zero: a
// scrape taken before the first overload shows the controller is there
// and has shed nothing, rather than omitting the series.
func TestMetricsCarryAdmissionBeforeAnyShed(t *testing.T) {
	_, ts, client := newTestServer(t, dataStore(t), Config{})
	resp := doReq(t, client, "GET", ts.URL+wire.PathMetrics, nil)
	var phase obs.PhaseReport
	if err := json.NewDecoder(resp.Body).Decode(&phase); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{"admission.shed", "admission.timeout"} {
		if n, ok := phase.Counters[name]; !ok || n != 0 {
			t.Errorf("counter %s = %d (present %v), want 0 and present", name, n, ok)
		}
	}
	for _, name := range []string{"admission.inflight", "admission.inflight_peak"} {
		if v, ok := phase.Gauges[name]; !ok || v != 0 {
			t.Errorf("gauge %s = %g (present %v), want 0 and present", name, v, ok)
		}
	}
}

// TestIngestLayoutIgnoresBodySegmentation pins that how a PUT body
// arrives does not choose the allocator's request sizes: delivered whole,
// in 1000-byte segments or a byte at a time, the same objects end up in
// the same clusters — the layout of a local whole-buffer write. (When
// copyBody appended whatever one Read returned, every segment became a
// write request of its own.) The volumes are aged first: on an empty one
// every request sequence lands contiguously.
func TestIngestLayoutIgnoresBodySegmentation(t *testing.T) {
	agedStore := func() blob.Store {
		s, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
		if err != nil {
			t.Fatal(err)
		}
		// Fill with 48 KB objects, then free every third: the free space
		// is holes smaller than one 64 KB write request.
		ctx := context.Background()
		n := int(s.Usage().CapacityBytes * 9 / 10 / (48 * units.KB))
		for i := 0; i < n; i++ {
			if err := blob.Put(ctx, s, fmt.Sprintf("fill-%04d", i), 48*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 3 {
			if err := s.Delete(ctx, fmt.Sprintf("fill-%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	sizes := []int64{300 * units.KB, 64*units.KB + 1, 384 * units.KB, 256 * units.KB, 700 * units.KB}
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, int(sizes[i])) }
	key := func(i int) string { return fmt.Sprintf("obj-%d", i) }
	layout := func(s blob.Store) map[string][]extent.Run {
		m := make(map[string][]extent.Run)
		s.EachObjectRuns(func(k string, _ int64, runs []extent.Run) {
			if strings.HasPrefix(k, "obj-") {
				m[k] = append([]extent.Run(nil), runs...)
			}
		})
		return m
	}

	local := agedStore()
	for i := range sizes {
		if err := blob.Put(context.Background(), local, key(i), sizes[i], body(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := layout(local)

	deliveries := map[string]func(io.Reader) io.Reader{
		"whole":          func(r io.Reader) io.Reader { return r },
		"segments":       func(r io.Reader) io.Reader { return segmentReader{r, 1000} },
		"byte-at-a-time": iotest.OneByteReader,
	}
	for name, deliver := range deliveries {
		store := agedStore()
		srv, err := New(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sizes {
			req := httptest.NewRequest("PUT", wire.PathBlobs+key(i), deliver(bytes.NewReader(body(i))))
			req.Header.Set(wire.HeaderSize, strconv.FormatInt(sizes[i], 10))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: PUT %s = %d %s", name, key(i), rec.Code, rec.Body)
			}
		}
		if got := layout(store); !reflect.DeepEqual(got, want) {
			t.Errorf("%s delivery laid objects out differently from a local write:\n got %v\nwant %v", name, got, want)
		}
	}
}

// segmentReader returns at most n bytes per Read, as a socket delivering
// one TCP segment at a time would.
type segmentReader struct {
	r io.Reader
	n int
}

func (s segmentReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// TestMetadataModePut pins the metadata-only wire form: a PUT with the
// meta-bytes header writes logical bytes with no payload, and reads
// come back flagged metadata with an empty body.
func TestMetadataModePut(t *testing.T) {
	s, err := core.NewDBStore(vclock.New(),
		blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, client := newTestServer(t, s, Config{})

	req, _ := http.NewRequest("PUT", ts.URL+wire.PathBlobs+"m", nil)
	req.Header.Set(wire.HeaderMetaBytes, strconv.FormatInt(512*units.KB, 10))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta PUT = %d", resp.StatusCode)
	}

	resp = doReq(t, client, "GET", ts.URL+wire.PathBlobs+"m", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(wire.HeaderMeta) != "1" || len(body) != 0 {
		t.Fatalf("meta GET: status=%d meta=%q len=%d", resp.StatusCode, resp.Header.Get(wire.HeaderMeta), len(body))
	}
	if resp.Header.Get(wire.HeaderSize) != strconv.FormatInt(512*units.KB, 10) {
		t.Fatalf("meta GET size = %q", resp.Header.Get(wire.HeaderSize))
	}
}

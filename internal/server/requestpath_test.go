package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/obs"
	"repro/internal/server/wire"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// hookStore runs hook with the request's context before every Stat, so
// a HEAD request drives whatever a store may do with its context.
type hookStore struct {
	blob.Store
	hook func(ctx context.Context) error
}

func (h *hookStore) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := h.hook(ctx); err != nil {
		return blob.Info{}, err
	}
	return h.Store.Stat(ctx, key)
}

// hookServer serves a store holding object "a" behind hook, through
// Serve when own is set and through ServeHTTP under net/http when not,
// and returns its base URL and a client for it.
func hookServer(t *testing.T, cfg Config, own bool, hook func(ctx context.Context) error) (string, *http.Client) {
	t.Helper()
	inner := dataStore(t)
	if err := blob.Put(context.Background(), inner, "a", 4*units.KB, make([]byte, 4*units.KB)); err != nil {
		t.Fatal(err)
	}
	srv, ts, client := newTestServer(t, &hookStore{Store: inner, hook: hook}, cfg)
	if own {
		return serveOn(t, srv), client
	}
	return ts.URL, client
}

// frontDoors are the two ways onto a Server, as test-name suffixes.
var frontDoors = []struct {
	suffix string
	own    bool
}{{"", false}, {" over Serve", true}}

// TestRequestContextContract pins what a store sees of the request
// context now that its deadline is armed only when waited on: polling
// Err and blocking on Done both end at RequestTimeout with 504, a child
// context is cancelled at the deadline, Deadline reports start +
// RequestTimeout, and a store that only polls never arms a timer.
// (TestMain's leakcheck covers every case's goroutines.)
func TestRequestContextContract(t *testing.T) {
	const timeout = 50 * time.Millisecond
	deadlines := make(chan time.Time, 1)
	cases := []struct {
		name       string
		hook       func(t *testing.T, ctx context.Context) error
		wantStatus int
		wantErr    string
	}{
		{"store polls Err", func(t *testing.T, ctx context.Context) error {
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			if rc, ok := ctx.(*reqCtx); !ok || rc.armed.Load() != nil {
				t.Error("polling Err armed a timer")
			}
			return ctx.Err()
		}, http.StatusGatewayTimeout, "deadline"},
		{"store blocks on Done", func(t *testing.T, ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}, http.StatusGatewayTimeout, "deadline"},
		{"WithCancel child ends at the deadline", func(t *testing.T, ctx context.Context) error {
			child, cancel := context.WithCancel(ctx)
			defer cancel()
			<-child.Done()
			return child.Err()
		}, http.StatusGatewayTimeout, "deadline"},
		{"Deadline is start + RequestTimeout", func(t *testing.T, ctx context.Context) error {
			d, ok := ctx.Deadline()
			if !ok {
				t.Error("no deadline")
			}
			deadlines <- d
			return nil
		}, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url, client := hookServer(t, Config{RequestTimeout: timeout}, false,
				func(ctx context.Context) error { return tc.hook(t, ctx) })
			before := obs.WallNow()
			resp := doReq(t, client, "HEAD", url+wire.PathBlobs+"a", nil)
			resp.Body.Close()
			after := obs.WallNow()
			if resp.StatusCode != tc.wantStatus || resp.Header.Get(wire.HeaderError) != tc.wantErr {
				t.Fatalf("status=%d err=%q, want %d %q",
					resp.StatusCode, resp.Header.Get(wire.HeaderError), tc.wantStatus, tc.wantErr)
			}
			if tc.wantStatus == http.StatusGatewayTimeout && after-before < timeout.Nanoseconds() {
				t.Fatalf("504 after %v, before the %v deadline", time.Duration(after-before), timeout)
			}
			if tc.wantStatus == http.StatusOK {
				lo, hi := time.Unix(0, before).Add(timeout), time.Unix(0, after).Add(timeout)
				if deadline := <-deadlines; deadline.Before(lo) || deadline.After(hi) {
					t.Fatalf("Deadline() = %v, want within [%v, %v]", deadline, lo, hi)
				}
			}
		})
	}

	// A client that hangs up cancels the request: context.Canceled on Err
	// and on Done, under a deadline that is far away. Under Serve, the
	// connection is watched once Done is called or Err after watchAfter.
	for _, door := range frontDoors {
		for _, wait := range []string{"Err", "Done"} {
			t.Run("client disconnect via "+wait+door.suffix, func(t *testing.T) {
				entered := make(chan struct{})
				seen := make(chan error, 1)
				url, client := hookServer(t, Config{RequestTimeout: time.Minute}, door.own, func(ctx context.Context) error {
					close(entered)
					if wait == "Err" {
						for ctx.Err() == nil {
							time.Sleep(time.Millisecond)
						}
					} else {
						<-ctx.Done()
					}
					seen <- ctx.Err()
					return ctx.Err()
				})
				ctx, cancel := context.WithCancel(context.Background())
				req, err := http.NewRequestWithContext(ctx, "HEAD", url+wire.PathBlobs+"a", nil)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					<-entered
					cancel()
				}()
				if resp, err := client.Do(req); err == nil {
					resp.Body.Close()
					t.Fatal("cancelled request completed")
				}
				if err := <-seen; !errors.Is(err, context.Canceled) {
					t.Fatalf("store saw %v, want context.Canceled", err)
				}
			})
		}
	}

	// A queued admission still arms its QueueTimeout and ends 503.
	for _, door := range frontDoors {
		t.Run("queued admission ends 503 at QueueTimeout"+door.suffix, func(t *testing.T) {
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			url, client := hookServer(t, Config{
				MaxInFlight: 1, MaxQueue: 1, QueueTimeout: timeout, RequestTimeout: time.Minute,
			}, door.own, func(ctx context.Context) error {
				entered <- struct{}{}
				select {
				case <-gate:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			held := make(chan int, 1)
			go func() {
				resp, err := client.Head(url + wire.PathBlobs + "a")
				if err != nil {
					t.Error(err)
					held <- 0
					return
				}
				resp.Body.Close()
				held <- resp.StatusCode
			}()
			<-entered
			before := obs.WallNow()
			resp := doReq(t, client, "HEAD", url+wire.PathBlobs+"a", nil)
			resp.Body.Close()
			waited := time.Duration(obs.WallNow() - before)
			close(gate)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(wire.HeaderError) != "unavailable" {
				t.Fatalf("queued HEAD: status=%d err=%q, want 503 unavailable",
					resp.StatusCode, resp.Header.Get(wire.HeaderError))
			}
			if waited < timeout {
				t.Fatalf("503 after %v, before the %v queue timeout", waited, timeout)
			}
			if code := <-held; code != http.StatusOK {
				t.Fatalf("slot holder: status=%d, want 200", code)
			}
		})
	}
}

// TestRequestContextConcurrentErrDone races Err pollers against Done
// callers on one request context (run it under -race -cpu 1,2): every
// Done caller gets the same channel, it closes at the deadline, and Err
// reports DeadlineExceeded from then on.
func TestRequestContextConcurrentErrDone(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &reqCtx{Context: parent, deadline: obs.WallNow() + (20 * time.Millisecond).Nanoseconds()}
	defer ctx.release()

	const n = 8
	dones := make([]<-chan struct{}, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				for ctx.Err() == nil {
					time.Sleep(100 * time.Microsecond)
				}
			}
			dones[i] = ctx.Done()
			<-dones[i]
			errs[i] = ctx.Err()
		}()
	}
	wg.Wait()
	for i := range dones {
		if dones[i] != dones[0] {
			t.Fatalf("Done caller %d got a different channel", i)
		}
		if !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Fatalf("caller %d: Err after Done = %v, want DeadlineExceeded", i, errs[i])
		}
	}
}

// TestAcquireWithDoneContextTakesNoSlot pins the rule for a request
// whose context is already done: it never takes a slot, reports the
// context's error rather than a shed, and leaves pending where it was.
// (A free slot and a closed Done were both ready in one select, so Go
// admitted about half of these.)
func TestAcquireWithDoneContextTakesNoSlot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := newAdmission(4, 4, time.Second, obs.NewWallRegistry())
	for i := 0; i < 200; i++ {
		if err := a.acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: acquire = %v, want context.Canceled", i, err)
		}
		if p, s := a.pending.Load(), len(a.slots); p != 0 || s != 0 {
			t.Fatalf("iteration %d: pending=%d slots held=%d, want 0/0", i, p, s)
		}
	}
	// Not a shed either, even with the queue full.
	full := newAdmission(1, 0, time.Second, obs.NewWallRegistry())
	if err := full.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer full.release()
	if err := full.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context at a full queue: %v, want context.Canceled", err)
	}
	if n := full.shed.Value(); n != 0 {
		t.Fatalf("admission.shed = %d, want 0", n)
	}
}

// servedMeta is a metadata-mode object behind fragserve's default stack
// and Config, driven through Server.ServeHTTP with no listener: GET,
// HEAD and PUT (replace) requests for it, each run with a fresh
// cancelable parent as net/http gives every request.
type servedMeta struct {
	srv  *Server
	reqs map[string]*http.Request
}

func newServedMeta(tb testing.TB) *servedMeta {
	tb.Helper()
	store, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{"file"}, Capacity: 256 * units.MB})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(store, Config{
		MaxInFlight:    DefaultMaxInFlight,
		MaxQueue:       2 * DefaultMaxInFlight,
		QueueTimeout:   time.Second,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	put := httptest.NewRequest("PUT", wire.PathBlobs+"m", http.NoBody)
	put.Header.Set(wire.HeaderMetaBytes, strconv.FormatInt(64*units.KB, 10))
	m := &servedMeta{srv: srv, reqs: map[string]*http.Request{
		"GET":  httptest.NewRequest("GET", wire.PathBlobs+"m", nil),
		"HEAD": httptest.NewRequest("HEAD", wire.PathBlobs+"m", nil),
		"PUT":  put,
	}}
	m.serve(tb, "PUT")
	return m
}

func (m *servedMeta) serve(tb testing.TB, method string) {
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	m.srv.ServeHTTP(rec, m.reqs[method].WithContext(ctx))
	cancel()
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s = %d %s", method, rec.Code, rec.Body)
	}
}

// TestRequestPathAllocationBudget pins the served request path's
// allocations: a request arms no timer it does not wait on. Budgets are
// the measured count plus 2: 24 / 22 / 24 (HEAD's version header is the
// 22nd), where a timer context per request and another for admission's
// queue wait made it 39 / 36 / 39.
// The counts are the same under -race. Admission itself allocates
// nothing with a slot free.
func TestRequestPathAllocationBudget(t *testing.T) {
	m := newServedMeta(t)
	for _, tc := range []struct {
		method string
		budget float64
	}{{"GET", 26}, {"HEAD", 24}, {"PUT", 26}} {
		if n := testing.AllocsPerRun(200, func() { m.serve(t, tc.method) }); n > tc.budget {
			t.Errorf("%s: %.1f allocs per request, budget %.0f", tc.method, n, tc.budget)
		}
	}

	ctx := &reqCtx{Context: context.Background(), deadline: obs.WallNow() + time.Minute.Nanoseconds()}
	if n := testing.AllocsPerRun(1000, func() {
		if err := m.srv.adm.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		m.srv.adm.release()
	}); n != 0 {
		t.Errorf("acquire+release with free slots: %.1f allocs, want 0", n)
	}
}

// BenchmarkServeRequest is the served request path in-process: ns and
// allocs per metadata-mode GET, HEAD and PUT through Server.ServeHTTP.
func BenchmarkServeRequest(b *testing.B) {
	m := newServedMeta(b)
	for _, method := range []string{"GET", "HEAD", "PUT"} {
		b.Run(method, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.serve(b, method)
			}
		})
	}
}

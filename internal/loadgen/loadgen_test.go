package loadgen_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// serveFile starts fragserve's front door (server.Serve) over a
// data-mode file store and returns its base URL.
func serveFile(t *testing.T, cfg server.Config) string {
	t.Helper()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve = %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// TestLoadgenRampedRun is the acceptance pin: the generator sustains
// ≥256 concurrent clients driven by workload.Source streams, records
// wall-clock per-op latency, and emits a schema-valid report with one
// "k=N" phase per ramp step.
func TestLoadgenRampedRun(t *testing.T) {
	url := serveFile(t, server.Config{})
	report := obs.NewRunReport()
	cfg := loadgen.Config{
		URL:           url,
		Ramp:          []int{64, 256},
		StepDuration:  200 * time.Millisecond,
		Objects:       512,
		Dist:          workload.Constant{Size: 4 * units.KB},
		ReadsPerWrite: 1,
		Seed:          1,
		Report:        report,
	}
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded != 512 {
		t.Fatalf("loaded %d objects, want 512", res.Loaded)
	}
	if len(res.Steps) != 2 || res.Steps[0].Clients != 64 || res.Steps[1].Clients != 256 {
		t.Fatalf("steps = %+v, want k=64 then k=256", res.Steps)
	}
	for _, step := range res.Steps {
		if step.Ops == 0 {
			t.Fatalf("step k=%d completed no ops", step.Clients)
		}
		if step.Errors != 0 {
			t.Fatalf("step k=%d: %d errors against an unloaded server", step.Clients, step.Errors)
		}
		if step.Snapshot.Unit != obs.UnitWall {
			t.Fatalf("step k=%d snapshot unit = %q, want wall_ns", step.Clients, step.Snapshot.Unit)
		}
		for _, name := range []string{"op.replace", "op.read"} {
			h := step.Snapshot.Histograms[name]
			if h == nil || h.Count == 0 {
				t.Fatalf("step k=%d recorded no %s latencies", step.Clients, name)
			}
			if h.Quantile(0.999) < h.Quantile(0.5) {
				t.Fatalf("%s p999 %d < p50 %d", name, h.Quantile(0.999), h.Quantile(0.5))
			}
		}
	}
	// The report must carry one wall-tagged phase per ramp step.
	if len(report.Experiments) != 1 {
		t.Fatalf("report has %d experiments, want 1", len(report.Experiments))
	}
	exp := report.Experiments[0]
	if len(exp.Phases) != 2 {
		t.Fatalf("report has %d phases, want 2", len(exp.Phases))
	}
	for i, want := range []string{"k=64", "k=256"} {
		p := exp.Phases[i]
		if p.Name != want {
			t.Fatalf("phase %d = %q, want %q", i, p.Name, want)
		}
		if p.TimeUnit != obs.UnitWall {
			t.Fatalf("phase %q time unit = %q, want wall_ns", p.Name, p.TimeUnit)
		}
		if len(p.Histograms) == 0 {
			t.Fatalf("phase %q has no histograms", p.Name)
		}
	}
}

// TestLoadgenShedVisibility pins the overload contract from the
// client's side: against a server with one in-flight slot and no
// queue, concurrent clients see typed ErrOverloaded sheds, counted —
// never retried, never crashing the run.
func TestLoadgenShedVisibility(t *testing.T) {
	url := serveFile(t, server.Config{MaxInFlight: 1, MaxQueue: 0})
	// Payload writes must be large enough that the server's body read
	// outruns the socket buffer and parks the handler goroutine INSIDE
	// its admission slot — on a single-CPU host that yield is what lets
	// competing requests arrive and overlap. 4 MB does it; small
	// metadata ops run the whole handler without yielding and never
	// collide.
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:           url,
		Ramp:          []int{16},
		StepDuration:  500 * time.Millisecond,
		Objects:       16,
		Dist:          workload.Constant{Size: 4 * units.MB},
		ReadsPerWrite: 1,
		Payload:       true,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := res.Steps[0]
	if step.Shed == 0 {
		t.Fatal("16 payload clients against a 1-slot server shed nothing")
	}
	if step.Errors < step.Shed {
		t.Fatalf("errors %d < sheds %d", step.Errors, step.Shed)
	}
	// Sheds surface as typed per-op error counters in the snapshot.
	var typed int64
	for name, v := range step.Snapshot.Counters {
		if name == "op.replace.err.overloaded" || name == "op.read.err.overloaded" {
			typed += v
		}
	}
	if typed == 0 {
		t.Fatal("no overloaded error counters recorded")
	}
}

// TestLoadgenConfigValidation refuses unusable configs with
// ErrBadOption before touching the network.
func TestLoadgenConfigValidation(t *testing.T) {
	good := loadgen.Config{
		URL:          "http://127.0.0.1:1",
		Ramp:         []int{1},
		StepDuration: time.Second,
		Objects:      1,
		Dist:         workload.Constant{Size: 4 * units.KB},
	}
	cases := []struct {
		name string
		mut  func(*loadgen.Config)
	}{
		{"EmptyURL", func(c *loadgen.Config) { c.URL = "" }},
		{"EmptyRamp", func(c *loadgen.Config) { c.Ramp = nil }},
		{"ZeroStep", func(c *loadgen.Config) { c.Ramp = []int{0} }},
		{"StepOverMaxStreams", func(c *loadgen.Config) { c.Ramp = []int{1, workload.MaxStreams + 1} }},
		{"ZeroDuration", func(c *loadgen.Config) { c.StepDuration = 0 }},
		{"NoObjects", func(c *loadgen.Config) { c.Objects = 0 }},
		{"NilDist", func(c *loadgen.Config) { c.Dist = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			if _, err := loadgen.Run(context.Background(), cfg); !errors.Is(err, blob.ErrBadOption) {
				t.Fatalf("err = %v, want ErrBadOption", err)
			}
		})
	}
	// The one good config fails on dial, not validation: nothing
	// listens on port 1.
	if _, err := loadgen.Run(context.Background(), good); err == nil || errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("dial to dead port = %v, want non-option error", err)
	}
}

// TestLoadgenDeterministicStreams pins the seed contract: two runs
// with the same seed against fresh servers prepopulate identical
// keyspaces (op ordering is timing-dependent, the op STREAMS are not).
// One client only: with k>1 the shared byte budget's exhaustion point
// depends on which client's uniform size draw lands last, so the
// loaded COUNT is timing-dependent even though every stream is seeded.
func TestLoadgenDeterministicStreams(t *testing.T) {
	load := func() int {
		url := serveFile(t, server.Config{})
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			URL:          url,
			Ramp:         []int{1},
			StepDuration: 50 * time.Millisecond,
			Objects:      32,
			Dist:         workload.Uniform{Min: 4 * units.KB, Max: 64 * units.KB},
			Seed:         7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Loaded
	}
	a, b := load(), load()
	if a != b {
		t.Fatalf("same seed loaded %d then %d objects", a, b)
	}
	if a == 0 {
		t.Fatal(fmt.Sprintf("loaded %d objects", a))
	}
}

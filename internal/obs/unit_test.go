package obs

import (
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/vclock"
)

// TestTimeUnitTagging pins the unit plumbing: registries carry their
// unit into snapshots and phase reports, and the report's JSON field
// is "time_unit" as schema v2 requires.
func TestTimeUnitTagging(t *testing.T) {
	virt := NewRegistry()
	if virt.Unit() != UnitVirtual {
		t.Fatalf("NewRegistry unit = %q, want %q", virt.Unit(), UnitVirtual)
	}
	wall := NewWallRegistry()
	if wall.Unit() != UnitWall {
		t.Fatalf("NewWallRegistry unit = %q, want %q", wall.Unit(), UnitWall)
	}
	var nilReg *Registry
	if nilReg.Unit() != UnitVirtual {
		t.Fatalf("nil registry unit = %q, want %q", nilReg.Unit(), UnitVirtual)
	}

	wall.Histogram("serve.get").Observe(1500)
	snap := wall.Snapshot()
	if snap.Unit != UnitWall {
		t.Fatalf("snapshot unit = %q, want %q", snap.Unit, UnitWall)
	}
	p := PhaseFromSnapshot("k=64", snap)
	if p.TimeUnit != UnitWall {
		t.Fatalf("phase time_unit = %q, want %q", p.TimeUnit, UnitWall)
	}

	// A hand-built snapshot with no unit defaults to virtual — the
	// historical meaning of every pre-v2 report.
	if got := PhaseFromSnapshot("arm", Snapshot{}).TimeUnit; got != UnitVirtual {
		t.Fatalf("unitless phase time_unit = %q, want %q", got, UnitVirtual)
	}

	// LatencyTable labels its y axis by unit.
	if got := LatencyTable("wall", snap, []string{"serve.get"}).YLabel; got != "wall ms" {
		t.Fatalf("wall latency table y label = %q, want %q", got, "wall ms")
	}
	if got := LatencyTable("virt", virt.Snapshot(), nil).YLabel; got != "virtual ms" {
		t.Fatalf("virtual latency table y label = %q, want %q", got, "virtual ms")
	}
}

// TestWallRegistryRefusedByVclockRecorders pins the guard: the
// vclock-timed recorders, and a wall-unit Collector asked to trace
// virtual spans, panic rather than mix virtual ns into wall_ns.
func TestWallRegistryRefusedByVclockRecorders(t *testing.T) {
	wall := NewWallRegistry()
	clk := vclock.New()
	inner, err := core.NewFileStore(clk, blob.WithCapacity(1<<20))
	if err != nil {
		t.Fatal(err)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: wall-unit registry accepted, want panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "wall_ns") {
				t.Fatalf("%s: panic = %v, want message naming wall_ns", name, r)
			}
		}()
		fn()
	}
	mustPanic("Wrap", func() { Wrap(inner, "disk", wall) })
	mustPanic("NewCommitObserver", func() { NewCommitObserver(wall, "store") })
	mustPanic("Collector with a Tracer", func() {
		c := &Collector{Registry: wall, Tracer: NewTracer(), Clock: clk}
		_, op := c.StartOp(t.Context(), 0, "read", "k")
		c.FinishOp(op, nil)
	})
	mustPanic("Collector with a MissLayer", func() {
		(&Collector{Registry: wall, MissLayer: "disk"}).StartOp(t.Context(), 0, "read", "k")
	})

	// The virtual-unit path is unaffected.
	Wrap(inner, "disk", NewRegistry())
	Wrap(inner, "disk", nil)
}

// TestWallCollectorTimesOnTheWallClock pins the other half of the
// Collector's clock rule: on a wall-unit registry it times each op on
// the wall clock, so ops against a store whose virtual clock never
// moves still record non-zero wall_ns latencies, and failures land in
// typed error counters, not in the histogram.
func TestWallCollectorTimesOnTheWallClock(t *testing.T) {
	wall := NewWallRegistry()
	c := &Collector{Registry: wall, Clock: vclock.New()} // never advanced
	for i := range 3 {
		_, op := c.StartOp(t.Context(), 0, "read", "k")
		for WallNow() <= op.Start { // the op's round trip: wall time passes
		}
		var err error
		if i == 2 {
			err = blob.ErrOverloaded
		}
		c.FinishOp(op, err)
	}
	s := wall.Snapshot()
	if s.Unit != UnitWall {
		t.Fatalf("snapshot unit = %q, want wall_ns", s.Unit)
	}
	h := s.Histograms["op.read"]
	if h == nil {
		t.Fatal("no op.read histogram")
	}
	if h.Count != 2 || h.Min <= 0 {
		t.Fatalf("op.read: %d points, min %d ns; want 2 successes with non-zero wall latency", h.Count, h.Min)
	}
	if n := s.Counters["op.read.err.overloaded"]; n != 1 {
		t.Fatalf("op.read.err.overloaded = %d, want 1 (counters: %v)", n, s.Counters)
	}
}

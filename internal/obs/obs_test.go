package obs

import (
	"testing"
)

// TestRegistryHandles pins the get-or-create contract: the same name
// returns the same handle, and distinct kinds share a namespace
// without colliding.
func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.ops")
	if r.Counter("a.ops") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("a.level")
	if r.Gauge("a.level") != g {
		t.Fatal("Gauge not idempotent")
	}
	h := r.Histogram("a.lat")
	if r.Histogram("a.lat") != h {
		t.Fatal("Histogram not idempotent")
	}

	c.Add(3)
	c.Inc()
	g.Set(0.25)
	h.Observe(10)
	s := r.Snapshot()
	if s.Counters["a.ops"] != 4 {
		t.Fatalf("counter = %d", s.Counters["a.ops"])
	}
	if s.Gauges["a.level"] != 0.25 {
		t.Fatalf("gauge = %g", s.Gauges["a.level"])
	}
	if g.SetMax(0.1); g.Value() != 0.25 {
		t.Fatalf("SetMax(0.1) lowered the gauge to %g", g.Value())
	}
	if g.SetMax(0.5); g.Value() != 0.5 {
		t.Fatalf("SetMax(0.5) left the gauge at %g", g.Value())
	}
	if s.Histograms["a.lat"].Count != 1 {
		t.Fatalf("hist count = %d", s.Histograms["a.lat"].Count)
	}
}

// TestRegistryResetKeepsHandles is the phase-separation contract: a
// store holding metric pointers across a Reset keeps recording into
// the same (now zeroed) metrics.
func TestRegistryResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("y")
	c.Inc()
	h.Observe(5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("reset did not zero metrics")
	}
	// The old handles still feed the registry.
	c.Inc()
	h.Observe(9)
	s := r.Snapshot()
	if s.Counters["x"] != 1 || s.Histograms["y"].Count != 1 || s.Histograms["y"].Min != 9 {
		t.Fatalf("post-reset recording lost: %+v", s)
	}
}

// TestSnapshotIsCopy proves a snapshot is decoupled from subsequent
// recording.
func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h").Observe(1)
	s := r.Snapshot()
	r.Counter("c").Add(10)
	r.Histogram("h").Observe(100)
	if s.Counters["c"] != 1 || s.Histograms["h"].Count != 1 {
		t.Fatal("snapshot mutated by later recording")
	}
}

// TestSnapshotOutcomes pins the one reading of op outcomes: successes
// are histogram points, failures name.err.<sentinel> counters, a shed
// is exactly an overloaded or unavailable failure, and a prefix sums
// its op kinds without counting the read.hit/read.miss split (or any
// other series) as ops.
func TestSnapshotOutcomes(t *testing.T) {
	r := NewRegistry()
	for range 5 {
		r.Histogram("op.read").Observe(10)
	}
	for range 3 {
		r.Histogram("op.replace").Observe(10)
	}
	r.Histogram("op.delete") // created, never observed
	r.Histogram("read.hit").Observe(10)
	r.Histogram("read.miss").Observe(10)
	r.Histogram("store.open").Observe(10)
	r.Counter("op.read.err.overloaded").Add(2)
	r.Counter("op.read.err.notfound").Add(1)
	r.Counter("op.replace.err.unavailable").Add(4)
	r.Counter("op.replace.err.busy").Add(1)
	r.Counter("store.open.err.overloaded").Add(7)
	r.Counter("op.reads") // not an error counter
	s := r.Snapshot()

	for _, tc := range []struct {
		name             string
		ok, failed, shed int64
	}{
		{"op.read", 5, 3, 2},
		{"op.replace", 3, 5, 4},
		{"op.delete", 0, 0, 0},
		{"op.create", 0, 0, 0},
		{"op.", 8, 8, 6},
		{"store.open", 1, 7, 7},
		{"op", 0, 0, 0}, // a bare name is not a prefix
	} {
		if ok, failed, shed := s.Outcomes(tc.name); ok != tc.ok || failed != tc.failed || shed != tc.shed {
			t.Errorf("Outcomes(%q) = %d ok, %d failed, %d shed; want %d, %d, %d",
				tc.name, ok, failed, shed, tc.ok, tc.failed, tc.shed)
		}
	}
}

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

package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(2, 20)
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2) = %g,%v", y, ok)
	}
	if _, ok := s.YAt(1); ok {
		t.Fatal("YAt(1) should miss")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Figure X", "Storage Age", "MB/sec")
	db := tb.AddSeries("Database")
	fs := tb.AddSeries("Filesystem")
	db.Add(0, 10.5)
	db.Add(2, 8.25)
	fs.Add(0, 5)
	fs.Add(4, 6)
	tb.Note("test note %d", 42)
	out := tb.Render()
	for _, want := range []string{"Figure X", "Database", "Filesystem", "10.50", "8.25", "test note 42", "MB/sec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// x=2 has no filesystem point: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Fatal("missing placeholder for absent point")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "age", "y")
	s := tb.AddSeries("a,b") // needs escaping
	s.Add(1, 2.5)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != `age,"a,b"` {
		t.Fatalf("header: %q", lines[0])
	}
	if lines[1] != "1,2.5" {
		t.Fatalf("row: %q", lines[1])
	}
}

func TestXValuesSortedUnion(t *testing.T) {
	tb := NewTable("T", "x", "y")
	a := tb.AddSeries("a")
	b := tb.AddSeries("b")
	a.Add(3, 1)
	a.Add(1, 1)
	b.Add(2, 1)
	b.Add(1, 1)
	xs := tb.xValues()
	want := []float64{1, 2, 3}
	if len(xs) != 3 {
		t.Fatalf("xs = %v", xs)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v", xs)
		}
	}
}

func TestCV(t *testing.T) {
	if cv := CV(nil); cv != 0 {
		t.Fatalf("empty CV = %f", cv)
	}
	if cv := CV([]float64{5, 5, 5, 5}); cv != 0 {
		t.Fatalf("constant CV = %f", cv)
	}
	// Mean 10, Std 5 -> CV 0.5 (scale-free: doubling the data keeps it).
	a := CV([]float64{5, 15})
	b := CV([]float64{10, 30})
	if a < 0.49 || a > 0.51 || a != b {
		t.Fatalf("CV = %f / %f, want ~0.5 and scale-free", a, b)
	}
	// Population standard deviation: 1..5 has mean 3 and std sqrt(2).
	if cv, want := CV([]float64{1, 2, 3, 4, 5}), math.Sqrt(2)/3; math.Abs(cv-want) > 1e-9 {
		t.Fatalf("CV(1..5) = %g, want %g", cv, want)
	}
}

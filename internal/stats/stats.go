// Package stats provides the small statistics and table-rendering
// helpers the benchmark harness uses to print paper-style figures as
// text and CSV.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CV returns the coefficient of variation of xs (standard deviation
// over mean) — the scale-free spread used to report shard imbalance.
// Zero when xs is empty or its mean is zero.
func CV(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var std float64
	if variance := sumSq/float64(len(xs)) - mean*mean; variance > 0 {
		std = math.Sqrt(variance)
	}
	return std / mean
}

// Point is one (x, y) observation of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points — one line of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the given x, or ok=false.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Table renders labelled rows of figures, in the style of the paper's
// chart data.
type Table struct {
	Title   string
	XLabel  string
	YLabel  string
	Series  []*Series
	Notes   []string
	Decimal int // y-value decimal places (default 2)
}

// NewTable creates a table with the given labels.
func NewTable(title, xLabel, yLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel, YLabel: yLabel, Decimal: 2}
}

// AddSeries appends a named series and returns it for population.
func (t *Table) AddSeries(name string) *Series {
	s := &Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}

// Note attaches a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// xValues returns the union of x values across series, ascending.
func (t *Table) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	dec := t.Decimal
	if dec == 0 {
		dec = 2
	}
	xs := t.xValues()
	// Header.
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", t.YLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14s", trimFloat(x))
		for _, s := range t.Series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, " %14.*f", dec, y)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV returns the table in comma-separated form with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range t.xValues() {
		b.WriteString(trimFloat(x))
		for _, s := range t.Series {
			b.WriteByte(',')
			if y, ok := s.YAt(x); ok {
				b.WriteString(trimFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.4f", f)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

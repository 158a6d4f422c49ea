package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestZipfPopularity pins the read mix: validated construction, picks
// in range, deterministic under a fixed seed, and skewed toward the
// low (hot) ranks.
func TestZipfPopularity(t *testing.T) {
	for _, s := range []float64{1, 0.3, -1, math.Inf(1)} {
		if _, err := NewZipfPopularity(s); !errors.Is(err, ErrBadDist) {
			t.Fatalf("NewZipfPopularity(%v) = %v, want ErrBadDist", s, err)
		}
	}
	pop, err := NewZipfPopularity(1.2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	pick := pop.Picker(rng, n)
	for i := 0; i < 20000; i++ {
		idx := pick()
		if idx < 0 || idx >= n {
			t.Fatalf("pick %d outside [0,%d)", idx, n)
		}
		counts[idx]++
	}
	hot, cold := 0, 0
	for i, c := range counts {
		if i < n/10 {
			hot += c
		} else if i >= n/2 {
			cold += c
		}
	}
	if hot <= 2*cold {
		t.Fatalf("zipf popularity not skewed: hot decile %d vs cold half %d", hot, cold)
	}
	// Same seed, same sequence.
	a, b := pop.Picker(rand.New(rand.NewSource(9)), n), pop.Picker(rand.New(rand.NewSource(9)), n)
	for i := 0; i < 100; i++ {
		if a() != b() {
			t.Fatal("popularity picks not deterministic under a fixed seed")
		}
	}
	if pop.Picker(rng, 1)() != 0 || pop.Picker(rng, 0)() != 0 {
		t.Fatal("degenerate populations must pick index 0")
	}
}

// TestNewZipfPopularityValidation pins the constructor's domain: an
// exponent must be finite and > 1, and a refused one wraps ErrBadDist.
// An accepted one keeps its exponent and names it in reports.
func TestNewZipfPopularityValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    float64
		ok   bool
	}{
		{"exponent-at-one", 1, false},
		{"exponent-below-one", 0.3, false},
		{"zero-exponent", 0, false},
		{"negative-exponent", -1, false},
		{"nan-exponent", math.NaN(), false},
		{"positive-infinity", math.Inf(1), false},
		{"negative-infinity", math.Inf(-1), false},
		{"just-above-one", 1.01, true},
		{"default-exponent", 1.2, true},
		{"steep-exponent", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pop, err := NewZipfPopularity(tc.s)
			if !tc.ok {
				if !errors.Is(err, ErrBadDist) {
					t.Fatalf("NewZipfPopularity(%v) = %+v, %v; want ErrBadDist", tc.s, pop, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewZipfPopularity(%v): %v", tc.s, err)
			}
			if pop.S != tc.s {
				t.Fatalf("exponent = %v, want %v", pop.S, tc.s)
			}
			if want := fmt.Sprintf("zipf(s=%.2f)", tc.s); pop.Name() != want {
				t.Fatalf("Name() = %q, want %q", pop.Name(), want)
			}
		})
	}
}

// TestZipfPopularityLiteralFallback pins that a literal built without
// the validating constructor cannot nil-deref math/rand's sampler: any
// exponent the sampler rejects (<= 1) falls back to the 1.2 default.
func TestZipfPopularityLiteralFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []float64{0, 0.5, 1, -3} {
		pick := ZipfPopularity{S: s}.Picker(rng, 100)
		for i := 0; i < 50; i++ {
			if idx := pick(); idx < 0 || idx >= 100 {
				t.Fatalf("S=%v: pick %d outside [0,100)", s, idx)
			}
		}
	}
}

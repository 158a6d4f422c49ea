package units

import (
	"math"
	"testing"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1K"},
		{256 * KB, "256K"},
		{MB, "1M"},
		{10 * MB, "10M"},
		{(3 * MB) / 2, "1.5M"},
		{40 * GB, "40G"},
		{400 * GB, "400G"},
		{2 * TB, "2T"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"256K", 256 * KB},
		{"256KB", 256 * KB},
		{"10M", 10 * MB},
		{"1.5M", (3 * MB) / 2},
		{"40G", 40 * GB},
		{"400gb", 400 * GB},
		{"123", 123},
		{" 2 T ", 2 * TB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d,%v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "x", "-1M", "K", "inf", "NaN", "1e30", "20000000000G"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", bad)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int64{KB, 64 * KB, MB, 10 * MB, GB, 400 * GB} {
		got, err := ParseBytes(FormatBytes(n))
		if err != nil || got != n {
			t.Errorf("round trip %d -> %q -> %d (%v)", n, FormatBytes(n), got, err)
		}
	}
}

func TestCeilDivRoundUp(t *testing.T) {
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(1, 3) != 1 {
		t.Fatal("CeilDiv wrong")
	}
	if RoundUp(10, 4) != 12 || RoundUp(8, 4) != 8 {
		t.Fatal("RoundUp wrong")
	}
}

func TestDuration(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0ns"},
		{-1, "0ns"},              // degenerate: clamp like MBps
		{-int64(1) << 62, "0ns"}, // hugely negative stays clamped
		{1, "1ns"},
		{999, "999ns"},
		{1000, "1µs"},
		{1500, "1.5µs"},
		{999999, "1000µs"}, // 999.999 rounds up in the 2-dp trim
		{1e6, "1ms"},
		{65_012_000, "65.01ms"},
		{1e9, "1s"},
		{42e8, "4.2s"},
		{36e11, "3600s"}, // huge: stays in seconds, no overflow
		{int64(1) << 62, "4611686018.43s"},
	}
	for _, c := range cases {
		if got := Duration(c.in); got != c.want {
			t.Errorf("Duration(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMBps(t *testing.T) {
	if got := MBps(10*MB, 2); got != 5 {
		t.Fatalf("MBps = %g, want 5", got)
	}
	if MBps(MB, 0) != 0 {
		t.Fatal("MBps with zero time should be 0")
	}
	// Degenerate intervals must clamp, never produce Inf/NaN — an
	// all-hit cached read phase makes zero (and negative, via skipped
	// -time subtraction) elapsed seconds reachable.
	for _, sec := range []float64{0, -1, math.NaN()} {
		if got := MBps(MB, sec); got != 0 {
			t.Fatalf("MBps(1MB, %v) = %v, want 0", sec, got)
		}
	}
	if got := MBps(0, math.Inf(1)); got != 0 {
		t.Fatalf("MBps over infinite time = %v, want 0", got)
	}
}

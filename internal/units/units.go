// Package units provides byte-size constants, formatting, and parsing
// helpers shared by every layer of the repository.
//
// All sizes in the system are expressed in bytes as int64 and converted to
// clusters or pages only at the storage-engine boundary.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Binary byte-size constants.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// FormatBytes renders n as a human-readable size using binary units,
// e.g. 262144 -> "256K", 10485760 -> "10M". Values that are not whole
// multiples are rendered with up to two decimal places.
func FormatBytes(n int64) string {
	switch {
	case n >= TB:
		return trim(float64(n)/float64(TB)) + "T"
	case n >= GB:
		return trim(float64(n)/float64(GB)) + "G"
	case n >= MB:
		return trim(float64(n)/float64(MB)) + "M"
	case n >= KB:
		return trim(float64(n)/float64(KB)) + "K"
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}

func trim(f float64) string {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// ParseBytes parses strings such as "256K", "10M", "1.5G", "400GB" or a
// plain integer number of bytes. A negative, non-finite or int64-overflowing
// size is an error.
func ParseBytes(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	s = strings.TrimSuffix(s, "B")
	if s == "" {
		return 0, fmt.Errorf("units: empty size %q", orig)
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K':
		mult, s = KB, s[:len(s)-1]
	case 'M':
		mult, s = MB, s[:len(s)-1]
	case 'G':
		mult, s = GB, s[:len(s)-1]
	case 'T':
		mult, s = TB, s[:len(s)-1]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %v", orig, err)
	}
	if f < 0 {
		return 0, fmt.Errorf("units: negative size %q", orig)
	}
	// Also refuses NaN and +Inf; 2^63 itself overflows int64.
	n := f * float64(mult)
	if !(n < math.MaxInt64) {
		return 0, fmt.Errorf("units: size %q is not a finite int64 byte count", orig)
	}
	return int64(n), nil
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// RoundUp rounds n up to the next multiple of align (align > 0).
func RoundUp(n, align int64) int64 {
	return CeilDiv(n, align) * align
}

// Duration renders a virtual-nanosecond interval as a human-readable
// latency: "17ns", "1.5µs", "65.01ms", "4.2s". Values that are not
// whole multiples get up to two decimal places (the trim idiom
// FormatBytes uses). Degenerate inputs are clamped like MBps: negative
// intervals (a histogram min seeded before any observation, a
// stopwatch read across a reset) render as "0ns" rather than
// propagating a sign that means nothing in virtual time.
func Duration(ns int64) string {
	const (
		usec = int64(1e3)
		msec = int64(1e6)
		sec  = int64(1e9)
	)
	switch {
	case ns <= 0:
		return "0ns"
	case ns >= sec:
		return trim(float64(ns)/float64(sec)) + "s"
	case ns >= msec:
		return trim(float64(ns)/float64(msec)) + "ms"
	case ns >= usec:
		return trim(float64(ns)/float64(usec)) + "µs"
	default:
		return strconv.FormatInt(ns, 10) + "ns"
	}
}

// MBps returns a bytes-over-seconds rate in MB/s. Degenerate intervals
// are clamped to 0 instead of dividing through to Inf or NaN: an
// all-hit read phase served from a memory cache can leave virtual
// elapsed seconds at (or indistinguishably near) zero, and a NaN input
// would otherwise slip through a plain <= comparison.
func MBps(bytes int64, seconds float64) float64 {
	if !(seconds > 0) { // also catches NaN, which fails every comparison
		return 0
	}
	return float64(bytes) / float64(MB) / seconds
}

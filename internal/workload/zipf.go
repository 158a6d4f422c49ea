package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ZipfPopularity is a rank-based Zipf read mix over the live object
// population: object rank k is read with probability proportional to
// (1+k)^-S, concentrating reads on a stable hot set. It serves the
// read-cache experiments: with a memory cache over the store, a Zipf
// read mix is the regime where hot objects never touch the fragmented
// layout.
type ZipfPopularity struct {
	// S is the skew exponent, > 1. Larger concentrates more of the
	// traffic on fewer objects.
	S float64
}

// NewZipfPopularity builds a validated Zipf read mix; s must be > 1
// (math/rand's Zipf sampler requires it), refused with ErrBadDist
// otherwise.
func NewZipfPopularity(s float64) (ZipfPopularity, error) {
	if !(s > 1) || math.IsInf(s, 0) {
		return ZipfPopularity{}, fmt.Errorf("%w: zipf popularity exponent %v must be > 1", ErrBadDist, s)
	}
	return ZipfPopularity{S: s}, nil
}

// Name implements Popularity.
func (p ZipfPopularity) Name() string { return fmt.Sprintf("zipf(s=%.2f)", p.S) }

// Picker implements Popularity: rank 0 (the first-created live object)
// is the hottest. Draws come from math/rand's bounded Zipf sampler
// seeded by the phase RNG, so a fixed seed yields a fixed read
// sequence; rand.NewZipf's setup is paid once per phase, not per draw.
func (p ZipfPopularity) Picker(rng *rand.Rand, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	s := p.S
	if !(s > 1) {
		// A literal built without NewZipfPopularity (zero value, or any
		// exponent math/rand's sampler rejects by returning nil, which
		// would nil-deref below) falls back to the 1.2 default.
		s = 1.2
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

var _ Popularity = ZipfPopularity{}

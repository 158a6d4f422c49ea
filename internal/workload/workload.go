// Package workload generates the paper's abstract write-intensive
// get/put application (§4.3): bulk load to a target occupancy, then
// rounds of safe-write replacement of uniformly chosen objects with
// interleaved reads, driven by deterministic seeded randomness.
//
// Following §4.3's simplifications: all objects are equally likely to be
// written or read, there is no correlation among objects, and object
// sizes come from simple distributions (constant and uniform; the paper
// found size distribution had no obvious effect on fragmentation).
//
// Since the operation-source redesign, every phase is expressed as a
// Source of typed Ops executed by the shared Executor: the Runner (one
// stream or k) and trace replay (package trace) are thin arrangements
// of Sources over one engine, so any workload —
// synthetic or recorded — can drive any blob.Store composition with one
// set of accounting rules.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/units"
)

// Typed errors for workload misconfiguration, in the spirit of
// blob.ErrBadOption: dispatch with errors.Is, never by message text.
var (
	// ErrNoSamples reports a read-throughput measurement asked for zero
	// or negative samples. An empty Result from such a phase would
	// propagate 0/0 artifacts into downstream rate math, so the phase
	// refuses instead of silently returning nothing.
	ErrNoSamples = errors.New("workload: read measurement needs samples > 0")

	// ErrBadDist reports an invalid size- or popularity-distribution
	// parameterization (NewZipfPopularity, ParseDist).
	ErrBadDist = errors.New("workload: invalid distribution")
)

// SizeDist is an object-size distribution.
type SizeDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Mean returns the mean object size in bytes.
	Mean() int64
	// Sample draws one object size.
	Sample(rng *rand.Rand) int64
}

// Constant is the paper's primary distribution: every object the same
// size.
type Constant struct{ Size int64 }

// Name implements SizeDist.
func (c Constant) Name() string { return "constant " + units.FormatBytes(c.Size) }

// Mean implements SizeDist.
func (c Constant) Mean() int64 { return c.Size }

// Sample implements SizeDist.
func (c Constant) Sample(*rand.Rand) int64 { return c.Size }

// Uniform draws sizes uniformly from [Min, Max] — Figure 5's alternative
// with the same mean as the constant distribution.
type Uniform struct{ Min, Max int64 }

// Name implements SizeDist.
func (u Uniform) Name() string {
	return fmt.Sprintf("uniform %s..%s", units.FormatBytes(u.Min), units.FormatBytes(u.Max))
}

// Mean implements SizeDist.
func (u Uniform) Mean() int64 { return (u.Min + u.Max) / 2 }

// Sample implements SizeDist.
func (u Uniform) Sample(rng *rand.Rand) int64 {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Int63n(u.Max-u.Min+1)
}

// UniformAround returns a Uniform spanning 0.5x..1.5x of mean, the
// natural counterpart used in Figure 5 ("sizes chosen uniformly at random
// with the same average size").
func UniformAround(mean int64) Uniform {
	return Uniform{Min: mean / 2, Max: mean + mean/2}
}

// Result summarises one workload phase.
type Result struct {
	Ops     int   // operations performed
	Skipped int   // operations skipped (TolerateNoSpace)
	Bytes   int64 // payload bytes moved
	// Seconds is the virtual time the whole phase spanned, including
	// time burned by skipped operations.
	Seconds float64
	// SkippedSeconds is the virtual time consumed by operations that
	// were skipped under TolerateNoSpace (a refused safe write still
	// pays for the allocation attempt and its rollback). A single-stream
	// Runner excludes it from MBps so skipped writes cannot dilute the
	// throughput mean. Multi-stream phases leave it zero: with k streams
	// a skipped op's interval overlaps other streams' useful work, so
	// there is no idle time to subtract and MBps is bytes over the whole
	// phase.
	SkippedSeconds float64
	MBps           float64 // payload throughput (see SkippedSeconds)
	EndingAge      float64 // storage age after the phase
	ObjectsAlive   int
}

func (r Result) String() string {
	return fmt.Sprintf("%d ops, %s in %.1fs virtual = %.2f MB/s (age %.2f)",
		r.Ops, units.FormatBytes(r.Bytes), r.Seconds, r.MBps, r.EndingAge)
}

// Runner drives one store through the workload phases with k writer
// streams (one unless WithStreams says otherwise). Each phase is one
// Source per stream executed by the shared Executor; the Runner
// contributes the state that spans phases: per stream, one RNG, the
// live-key list and the fresh-key numbering.
//
// One stream is the paper's sequential workload (§4.3). k > 1 is the §6
// regime a single writer cannot reach — "we have not yet characterized
// the impact of interleaved append requests to multiple objects, which
// are likely to increase fragmentation": every stream owns its keyspace
// (keys prefixed "s<i>-") and its seeded RNG, and the Executor runs them
// on k goroutines, so appends from different streams genuinely
// interleave in allocation order while each stream's op sequence stays
// reproducible. All streams churn to the store's one storage age: it is
// a property of the volume, not of any writer.
type Runner struct {
	exec    *Executor
	dist    SizeDist
	seed    int64
	streams []*stream
}

// stream is one writer's private workload state. Only its owning
// goroutine touches it during a phase.
type stream struct {
	prefix string // "" for a lone stream, "s<i>-" among several
	rng    *rand.Rand
	keys   []string
	next   int64
}

// key returns the stream's next fresh object key.
func (s *stream) key() string {
	k := fmt.Sprintf("%sobj-%08d", s.prefix, s.next)
	s.next++
	return k
}

// NewRunner creates a deterministic single-stream runner over store.
func NewRunner(store blob.Store, dist SizeDist, seed int64) *Runner {
	r := &Runner{exec: NewExecutor(store), dist: dist, seed: seed}
	return r.WithStreams(1)
}

// WithStreams sets the number of concurrent writer streams; call it
// before the first phase. Stream i draws from an RNG seeded seed+i.
// A count the Executor refuses (below 1, above MaxStreams) fails the
// first phase with blob.ErrBadOption.
func (r *Runner) WithStreams(k int) *Runner {
	r.streams = make([]*stream, max(k, 0))
	for i := range r.streams {
		st := &stream{rng: rand.New(rand.NewSource(r.seed + int64(i)))}
		if k > 1 {
			st.prefix = fmt.Sprintf("s%02d-", i)
		}
		r.streams[i] = st
	}
	return r
}

// WithCollector installs per-op observability on the runner's executor
// (see Executor.WithCollector).
func (r *Runner) WithCollector(c *obs.Collector) *Runner {
	r.exec.WithCollector(c)
	return r
}

// Executor exposes the engine the runner's phases execute through.
func (r *Runner) Executor() *Executor { return r.exec }

// Tracker reads the store's storage age.
func (r *Runner) Tracker() *core.AgeTracker { return r.exec.Tracker() }

// Repo returns the store under test.
func (r *Runner) Repo() blob.Store { return r.exec.Store() }

// Keys returns the keys of live objects: creation order within a
// stream, stream-major across streams.
func (r *Runner) Keys() []string {
	var out []string
	for _, s := range r.streams {
		out = append(out, s.keys...)
	}
	return out
}

// BulkLoad puts fresh objects until live bytes reach occupancy (0..1) of
// the repository's capacity. The paper's figures start from this state
// ("storage age 0", §5.3) and both systems append sequentially during it.
func (r *Runner) BulkLoad(occupancy float64) (Result, error) {
	return r.BulkLoadBytes(int64(occupancy * float64(r.Repo().CapacityBytes())))
}

// BulkLoadBytes puts fresh objects until live bytes reach targetBytes.
// Several streams race for the one byte budget, so their appends
// interleave from the very first load. Each stream claims its first
// object, in stream order, before any starts, so every stream loads
// while the budget holds an object per stream. On a sharded store an
// unlucky shard can fill early; the resulting ErrNoSpaceLeft is
// returned (wrapped) for the caller to tolerate, with the other
// streams' work intact.
func (r *Runner) BulkLoadBytes(targetBytes int64) (Result, error) {
	budget := NewByteBudget(targetBytes)
	budget.Reserve(r.Repo().LiveBytes())
	specs := make([]Stream, len(r.streams))
	for i, s := range r.streams {
		src := &LoadSource{
			Dist:     r.dist,
			Budget:   budget,
			Key:      s.key,
			OnCreate: func(key string) { s.keys = append(s.keys, key) },
		}
		src.prime(s.rng)
		specs[i] = Stream{Source: src, RNG: s.rng}
	}
	rr, err := r.exec.Run(specs, RunOptions{})
	res := r.writeResult(rr)
	if err != nil {
		return res, fmt.Errorf("bulk load after %d objects: %w", res.Ops, err)
	}
	return res, nil
}

// ChurnOptions controls a churn phase.
type ChurnOptions struct {
	// ReadsPerWrite interleaves this many whole-object reads per safe
	// write (the paper's "interleaved read requests", §4.3).
	ReadsPerWrite int

	// TolerateNoSpace skips safe writes that fail with ErrNoSpaceLeft
	// instead of aborting the phase, counting them in Result.Skipped —
	// the sharded regime, where one nearly-full shard can reject a
	// replace (old and new version coexist until commit) while the
	// fleet as a whole has room. The phase still fails if every key in
	// a row is refused, so a genuinely full store cannot spin forever.
	TolerateNoSpace bool
}

// ChurnToAge safe-writes uniformly chosen objects — each stream from
// its own keyspace — until the shared storage age reaches target. Write
// throughput over the phase is the Figure 4 measurement: "the average
// write throughput between the bulk load and storage age two read
// measurements".
func (r *Runner) ChurnToAge(target float64, opts ChurnOptions) (Result, error) {
	specs := make([]Stream, len(r.streams))
	loaded := 0
	for i, s := range r.streams {
		loaded += len(s.keys)
		// A stream that got no budget at load time has an empty keyspace
		// and its ChurnSource is immediately exhausted: it idles.
		specs[i] = Stream{
			Source: &ChurnSource{
				Keys:          s.keys,
				Dist:          r.dist,
				TargetAge:     target,
				Age:           r.Tracker().Age,
				ReadsPerWrite: opts.ReadsPerWrite,
			},
			RNG:       s.rng,
			SkipLimit: 4 * len(s.keys),
		}
	}
	if loaded == 0 {
		return Result{}, fmt.Errorf("workload: churn before bulk load")
	}
	rr, err := r.exec.Run(specs, RunOptions{TolerateNoSpace: opts.TolerateNoSpace})
	res := r.writeResult(rr)
	if err != nil {
		return res, fmt.Errorf("churn: %w", err)
	}
	return res, nil
}

// ReadOptions controls a read-throughput measurement phase.
type ReadOptions struct {
	// Popularity picks which live object each read targets; nil reads
	// uniformly (the paper's §4.3 simplification). A Zipf popularity
	// concentrates reads on a hot set — the regime where a read cache
	// above the store pays off.
	Popularity Popularity
	// Collector, when non-nil, times every read end-to-end on the
	// virtual clock and traces it through obs-wrapped store layers
	// (obs.Collector.MissLayer splits cache hits from misses).
	Collector *obs.Collector
}

// Popularity picks the index of the object each read targets among n
// live objects.
type Popularity interface {
	// Name identifies the popularity mix in reports.
	Name() string
	// Picker returns a sampler for one read phase over n live objects,
	// drawing from rng. Every draw must lie in [0, n).
	Picker(rng *rand.Rand, n int) func() int
}

// MeasureRead reads `samples` objects drawn by opts.Popularity
// (uniform when nil) and returns the payload throughput in MB/s of
// virtual time — the paper's primary performance indicator (§5).
// samples <= 0 is refused with ErrNoSamples.
func (r *Runner) MeasureRead(samples int, opts ReadOptions) (Result, error) {
	res, err := readPhase(r.exec, r.Keys(), samples, r.streams[0].rng, opts)
	if err != nil {
		return res, err
	}
	res.EndingAge = r.Tracker().Age()
	return res, nil
}

// ReadPhase reads `samples` objects drawn from keys by opts.Popularity
// through s with a private seeded RNG. It is the standalone form of
// Runner.MeasureRead for measuring the same aged layout through
// different read paths (e.g. the same store behind several cache
// capacities) with an identical key sequence per seed.
func ReadPhase(ctx context.Context, s blob.Store, keys []string, samples int,
	seed int64, opts ReadOptions) (Result, error) {
	return readPhase(NewExecutor(s).WithContext(ctx).WithCollector(opts.Collector),
		keys, samples, rand.New(rand.NewSource(seed)), opts)
}

// readPhase is the shared read-measurement phase: a ReadSource through
// the executor.
func readPhase(exec *Executor, keys []string, samples int,
	rng *rand.Rand, opts ReadOptions) (Result, error) {
	if samples <= 0 {
		return Result{}, fmt.Errorf("%w: got %d", ErrNoSamples, samples)
	}
	if len(keys) == 0 {
		return Result{}, fmt.Errorf("workload: measure before bulk load")
	}
	src := &ReadSource{Keys: keys, Samples: samples, Popularity: opts.Popularity}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rng}}, RunOptions{})
	total := rr.Total()
	res := Result{
		Ops:          total.Ops(),
		Bytes:        total.BytesRead,
		Seconds:      rr.Seconds,
		MBps:         units.MBps(total.BytesRead, rr.Seconds),
		ObjectsAlive: exec.Store().ObjectCount(),
	}
	return res, err
}

// writeResult converts a write run into the phase Result: Bytes and
// MBps cover the payload written, with a lone stream's skipped-op time
// excluded from the throughput mean.
func (r *Runner) writeResult(rr RunResult) Result {
	total := rr.Total()
	bytes := total.BytesWritten
	return Result{
		Ops:            total.Ops(),
		Skipped:        total.Skipped,
		Bytes:          bytes,
		Seconds:        rr.Seconds,
		SkippedSeconds: total.SkippedSeconds,
		MBps:           units.MBps(bytes, rr.Seconds-total.SkippedSeconds),
		EndingAge:      r.Tracker().Age(),
		ObjectsAlive:   r.Repo().ObjectCount(),
	}
}

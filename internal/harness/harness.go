// Package harness defines one runnable experiment per table and figure in
// the paper's evaluation (§5), plus the extension experiments DESIGN.md
// lists. Each experiment builds fresh simulated stores, drives the §4.3
// workload over them, and emits the same rows/series the paper's charts
// report, as stats.Tables.
//
// Scale note (§5.4): "The time it takes to run the experiments is
// proportional to the volume's capacity. ... Using a smaller (although
// perhaps unrealistic) volume size allows more experiments." The same
// applies to the simulation; Config.Scale selects the volume sizes, and
// the paper's own Figure 6 result — volume size barely matters above a
// few hundred free objects — is what justifies the smaller defaults.
package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Config controls experiment scale and reporting.
type Config struct {
	// VolumeBytes is the data volume size for single-volume experiments.
	VolumeBytes int64
	// Occupancy is the live-data fraction after bulk load (paper default
	// 50%, §5.4).
	Occupancy float64
	// MaxAge is the deepest storage age measured in aging curves
	// (Figures 2/3/5: 10).
	MaxAge float64
	// AgeStep is the measurement interval along the age axis.
	AgeStep float64
	// ReadSamples is the number of whole-object reads per throughput
	// measurement.
	ReadSamples int
	// Seed drives all randomness.
	Seed int64
	// MaxShards caps the shard-count sweep of the "shard" experiment
	// (powers of two up to this value; 0 takes 16).
	MaxShards int
	// StreamCounts is the concurrent-writer sweep of the "interleave"
	// experiment (nil takes 1, 4, 16).
	StreamCounts []int
	// CacheBytes is the capacity sweep of the "readcache" experiment
	// in bytes; 0 entries mean "no cache" (nil takes 0, 64M, 256M).
	CacheBytes []int64
	// Dist overrides the object-size distribution of the Source-driven
	// sweeps (interleave, tracereplay); nil takes the scale-derived
	// constant size. Set from the fragbench -dist flag
	// (e.g. uniform:5M-15M) to probe the fs-interleaving regime.
	Dist workload.SizeDist
	// TracePath replays a recorded trace file in the "tracereplay"
	// experiment instead of recording a synthetic churn run first.
	TracePath string
	// DutyCycles is the compactor duty-cycle sweep of the "compact"
	// experiment, each in [0,1] (nil takes 0, 0.1, 0.5). Set from the
	// fragbench -duty flag.
	DutyCycles []float64
	// Obs enables per-layer observability in the experiments that
	// support it (interleave, readcache, compact): store chains are
	// obs-wrapped, every op is timed on the virtual clock, and each
	// experiment appends per-layer latency quantile tables to its
	// output. Set from the fragbench -obs / -report / -optrace flags.
	Obs bool
	// Report, when non-nil, accumulates the machine-readable run
	// report: observability-enabled experiments append one phase
	// snapshot per arm (implies the instrumentation Obs enables).
	Report *obs.RunReport
	// Tracer, when non-nil, retains per-op traces (ring of recent ops
	// plus slowest survivors) across every instrumented arm, for the
	// -optrace Chrome trace / JSONL dump.
	Tracer *obs.Tracer
	// Log receives progress lines; nil silences them.
	Log io.Writer
}

// DefaultConfig returns bench-scale settings: 4 GB volumes keep every
// figure under a few minutes while preserving the paper's free-pool
// ratios (a 4 GB volume at 50% full holds ~200 free 10 MB objects —
// below the paper's 400-object comfort threshold only for fig6's
// deliberate small-volume arm).
func DefaultConfig() Config {
	return Config{
		VolumeBytes: 4 * units.GB,
		Occupancy:   0.5,
		MaxAge:      10,
		AgeStep:     1,
		ReadSamples: 200,
		Seed:        1,
	}
}

// TestConfig returns miniature settings for unit/integration tests.
func TestConfig() Config {
	return Config{
		VolumeBytes: 512 * units.MB,
		Occupancy:   0.5,
		MaxAge:      4,
		AgeStep:     2,
		ReadSamples: 40,
		Seed:        1,
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the short name used by cmd/fragbench and bench targets
	// (e.g. "fig2").
	ID string
	// Title mirrors the paper's caption.
	Title string
	// Paper cites the figure/table and section.
	Paper string
	// Run executes the experiment and returns its charts.
	Run func(Config) ([]*stats.Table, error)
}

// Experiments lists every reproduction in DESIGN.md's per-experiment
// index, in paper order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Configuration of the test system", Paper: "Table 1", Run: Table1},
	{ID: "fig1", Title: "Read throughput at storage ages 0, 2, 4", Paper: "Figure 1, §5.2-5.3", Run: Figure1},
	{ID: "fig2", Title: "Long term fragmentation with 10 MB objects", Paper: "Figure 2, §5.3", Run: Figure2},
	{ID: "fig3", Title: "Long term fragmentation with 256 KB objects", Paper: "Figure 3, §5.3", Run: Figure3},
	{ID: "fig4", Title: "512 KB write throughput over time", Paper: "Figure 4, §5.3", Run: Figure4},
	{ID: "fig5", Title: "Fragmentation: constant vs uniform object sizes", Paper: "Figure 5, §5.4", Run: Figure5},
	{ID: "fig6", Title: "Fragmentation across volume sizes and occupancy", Paper: "Figure 6, §5.4", Run: Figure6},
	{ID: "patho", Title: "Recovery of a pathologically fragmented volume", Paper: "§5.3", Run: Pathological},
	{ID: "hint", Title: "Size-hint / delayed-allocation ablation", Paper: "§5.4, §6", Run: SizeHintAblation},
	{ID: "wreq", Title: "Write request size sweep", Paper: "§5.3-5.4", Run: WriteRequestSweep},
	{ID: "ileave", Title: "Interleaved appends, single writer round-robin (concurrent version: interleave)", Paper: "§6 (future work)", Run: InterleavedAppend},
	{ID: "policy", Title: "Allocation policy comparison", Paper: "§3.2, §3.4", Run: PolicyComparison},
	{ID: "shard", Title: "Sharded multi-volume fragmentation sweep", Paper: "Figure 6 extension, §5.4", Run: ShardSweep},
	{ID: "interleave", Title: "Concurrent writer streams with group commit", Paper: "§6 extension, §3.1", Run: InterleaveSweep},
	{ID: "readcache", Title: "Read-path cache capacity sweep with Zipf reads", Paper: "§5 extension, read path", Run: ReadCacheSweep},
	{ID: "tracereplay", Title: "Recorded-trace replay across k concurrent writer streams", Paper: "§6 + §5.4 trace-based generation", Run: TraceReplaySweep},
	{ID: "compact", Title: "Online compaction duty-cycle sweep", Paper: "§3.4 (the unmeasured tradeoff)", Run: CompactionSweep},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	return out
}

// systems are the paper's two systems under test, in the order every
// table lists them: kind labels log lines and report phases, name the
// table series.
var systems = []struct{ kind, name, backend string }{
	{"database", "Database", stack.DB},
	{"filesystem", "Filesystem", stack.File},
}

// spec describes one volume of the given backend at experiment scale:
// metadata-only drives and the store's default write request,
// blob.DefaultWriteRequestSize, the 64 KB the paper's tests fixed
// (§5.3). No volume keeps the disk owner map: experiments read
// extent lists, never the marker scan. Experiments adjust the returned
// Spec for their arm.
func (c Config) spec(backend string) stack.Spec {
	return stack.Spec{
		Backends: []string{backend},
		Capacity: c.VolumeBytes,
	}
}

// build assembles spec on clock, naming the stack in the progress log.
func (c Config) build(clock *vclock.Clock, spec stack.Spec) (blob.Store, error) {
	c.logf("  stack %s", spec)
	return stack.Build(clock, spec)
}

// drive holds the extras a few arms age their store with; the zero
// value is the paper's single-writer procedure.
type drive struct {
	// tolerant accepts ErrNoSpaceLeft at load and skips safe writes it
	// refuses in churn: the sharded and concurrent regimes, where one
	// full shard or a lost budget race is the measurement, not a failure.
	tolerant bool
	// streams is the number of concurrent writer streams (0 takes 1).
	streams int
	// col times every op of the load and churn (nil: none).
	col *obs.Collector
	// wrap, when non-nil, puts a layer between the store and the runner
	// (the trace recorder).
	wrap func(blob.Store) blob.Store
}

// arm is what an arm's step sees at one age of its store.
type arm struct {
	store  blob.Store // as built, under any drive.wrap layer
	runner *workload.Runner
	age    float64
	res    workload.Result // the load's result at age 0, else the churn's
}

// age is every arm's procedure (§4.3, §5.4): build spec on clock (each
// arm gets a clock of its own — the paper ran the systems independently),
// bulk-load dist to c.Occupancy, then for each of ages in turn churn to
// it and call step; an age of 0 is the store right after the load.
func (c Config) age(clock *vclock.Clock, spec stack.Spec, dist workload.SizeDist, ages []float64, d drive,
	step func(arm) error) error {
	store, err := c.build(clock, spec)
	if err != nil {
		return err
	}
	under := store
	if d.wrap != nil {
		under = d.wrap(store)
	}
	runner := workload.NewRunner(under, dist, c.Seed).WithStreams(max(d.streams, 1)).WithCollector(d.col)
	res, err := runner.BulkLoad(c.Occupancy)
	if err != nil && !(d.tolerant && errors.Is(err, blob.ErrNoSpaceLeft)) {
		return fmt.Errorf("%s: bulk load: %w", spec, err)
	}
	for _, age := range ages {
		if age > 0 {
			if res, err = runner.ChurnToAge(age, workload.ChurnOptions{TolerateNoSpace: d.tolerant}); err != nil {
				return fmt.Errorf("%s: churn to %.1f: %w", spec, age, err)
			}
		}
		if err := step(arm{store, runner, age, res}); err != nil {
			return err
		}
	}
	return nil
}

// sizeDist returns the object-size distribution of the Source-driven
// sweeps: Config.Dist when set, else the scale-derived constant size
// (~400 objects per volume, the shard/interleave sweeps' convention).
func (c Config) sizeDist() workload.SizeDist {
	if c.Dist != nil {
		return c.Dist
	}
	return workload.Constant{Size: units.RoundUp(c.VolumeBytes/400, 64*units.KB)}
}

// meanFrags measures mean fragments/object for any store.
func meanFrags(s blob.Store) float64 {
	return frag.Analyze(s).MeanFragments()
}

// agePoints returns the measurement ages 0, step, 2*step ... max.
func (c Config) agePoints() []float64 {
	var out []float64
	for a := 0.0; a <= c.MaxAge+1e-9; a += c.AgeStep {
		out = append(out, a)
	}
	return out
}

// fragCurve ages a fresh volume of the given backend and measures mean
// fragments/object at each age point as a new series of t named name.
// prep, when non-nil, runs on the loaded store before the first
// measurement.
func (c Config) fragCurve(t *stats.Table, backend string, dist workload.SizeDist, name string, prep func(blob.Store), extra ...blob.Option) error {
	spec := c.spec(backend)
	spec.Options = append(spec.Options, extra...)
	s := t.AddSeries(name)
	return c.age(vclock.New(), spec, dist, c.agePoints(), drive{}, func(a arm) error {
		if a.age == 0 && prep != nil {
			prep(a.store)
		}
		s.Add(a.age, meanFrags(a.store))
		c.logf("  %s age %.1f: %.2f", name, a.age, s.Points[len(s.Points)-1].Y)
		return nil
	})
}

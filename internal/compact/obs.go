package compact

import (
	"strconv"

	"repro/internal/obs"
)

// PublishMetrics writes the fleet's aggregate work into reg under the
// given prefix ("compact" → "compact.rewrites", ...): counters for the
// cumulative work (scans, rewrites, busy/skip/error counts),
// gauges for the byte totals and the duty cycle. A fleet over a sharded
// store also publishes per-shard rewrite-byte and busy-time gauges
// ("compact.shard0.rewrite_bytes", ...), the skew view. Call at a phase
// boundary — the compactor pushes nothing itself, so publishing is a
// snapshot, consistent with the registry's phase-report model.
func (f *Fleet) PublishMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s := f.Stats()
	set := func(name string, v int64) {
		c := reg.Counter(prefix + "." + name)
		c.Add(v - c.Value())
	}
	set("scans", s.Scans)
	set("rewrites", s.Rewrites)
	set("skipped_busy", s.SkippedBusy)
	set("errors", s.Errors)
	reg.Gauge(prefix + ".rewrite_bytes").Set(float64(s.RewriteBytes))
	reg.Gauge(prefix + ".busy_seconds").Set(s.BusySeconds)
	reg.Gauge(prefix + ".duty_cycle").Set(f.duty)
	if len(f.comps) < 2 {
		return
	}
	for i, c := range f.comps {
		name := prefix + ".shard" + strconv.Itoa(i)
		reg.Gauge(name + ".rewrite_bytes").Set(float64(c.stats.RewriteBytes))
		reg.Gauge(name + ".busy_seconds").Set(c.stats.BusySeconds)
	}
}

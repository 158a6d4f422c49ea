package compact

import (
	"strconv"

	"repro/internal/obs"
)

// PublishMetrics writes the compactor's aggregate work into reg under
// the given prefix ("compact" → "compact.rewrites", ...): counters for
// the cumulative work (scans, rewrites, busy/skip/error counts),
// gauges for the byte totals and the duty cycle. A compactor over a
// sharded store also publishes per-shard rewrite-byte and busy-time
// gauges ("compact.shard0.rewrite_bytes", ...), the skew view. Call at
// a phase boundary — the compactor pushes nothing itself, so publishing
// is a snapshot, consistent with the registry's phase-report model.
func (c *Compactor) PublishMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s := c.Stats()
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
	reg.Gauge(prefix + ".duty_cycle").Set(c.duty)
	if len(c.accounts) < 2 {
		return
	}
	for i, a := range c.accounts {
		name := prefix + ".shard" + strconv.Itoa(i)
		reg.Gauge(name + ".rewrite_bytes").Set(float64(a.stats.RewriteBytes))
		reg.Gauge(name + ".busy_seconds").Set(a.stats.BusySeconds)
	}
}

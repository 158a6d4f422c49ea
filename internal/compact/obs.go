package compact

import "repro/internal/obs"

// PublishMetrics writes the compactor's aggregate work into reg under
// the given prefix ("compact" → "compact.rewrites", ...): counters for
// the cumulative work (scans, rewrites, busy/skip/error counts),
// gauges for the byte totals and the duty cycle. Call at a phase
// boundary — the compactor pushes nothing itself, so publishing is a
// snapshot, consistent with the registry's phase-report model.
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
}

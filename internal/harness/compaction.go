package harness

import (
	"context"
	"fmt"

	"repro/internal/compact"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// dutyCycles returns the "compact" experiment's sweep: Config.DutyCycles,
// or off, a light background trickle and an aggressive half-time
// compactor.
func (c Config) dutyCycles() []float64 {
	if len(c.DutyCycles) > 0 {
		return c.DutyCycles
	}
	return []float64{0, 0.1, 0.5}
}

// compactionSteps is the number of churn increments between the aging
// point and MaxAge; each increment ends in an idle vclock window where
// the compactor may catch up to its duty-cycle share.
const compactionSteps = 8

// CompactionSweep answers the question §3.4 raises but never measures:
// does online defragmentation pay for itself? Each backend is aged to
// MaxAge/2 so fragmentation is established, then churned to MaxAge with
// an online compactor at each duty cycle (0 = off). The compactor is
// built right before the measured churn, so its duty window opens there.
// The churn runs in increments, and the idle window at each increment
// boundary is one compactor step: Compactor.CatchUp works, duty gated,
// up to its share of the virtual time elapsed so far. Nothing runs
// beside the churn stream, so every row is reproducible at one seed.
// Rewrites charge full read+write disk cost on the shared virtual
// clock, and the measured span covers churn and catch-up alike, so the
// MB/s column already contains the compaction tax that the
// fragments/object column shows the benefit of.
func CompactionSweep(c Config) ([]*stats.Table, error) {
	duties := c.dutyCycles()
	objSize := units.RoundUp(c.VolumeBytes/400, 64*units.KB)
	dist := workload.Constant{Size: objSize}
	preAge := c.MaxAge / 2
	endAge := c.MaxAge

	frags := stats.NewTable(
		fmt.Sprintf("Online compaction: fragments/object at age %.1f vs duty cycle (%s objects)",
			endAge, units.FormatBytes(objSize)),
		"Duty cycle", "Fragments/object")
	tput := stats.NewTable("Online compaction: churn throughput vs duty cycle (rewrite tax included)",
		"Duty cycle", "MB/sec")

	var latTables []*stats.Table
	for _, st := range systems {
		kind, name := st.kind, st.name
		fragSeries := frags.AddSeries(name)
		tputSeries := tput.AddSeries(name)

		for _, duty := range duties {
			// Each arm rebuilds the same seeded layout, so the only
			// difference between duty points is the compactor.
			clock := vclock.New()
			p := c.newProbe(fmt.Sprintf("compact %s duty=%g", kind, duty), clock, "")
			// The obs layer wraps the whole chain, so compactor rewrites
			// (which execute through the top) are timed as store.compact
			// alongside the foreground ops.
			err := c.age(clock, p.observe(c.spec(st.backend)), dist, []float64{preAge}, drive{}, func(a arm) error {
				before := meanFrags(a.store)
				var comp *compact.Compactor
				if duty > 0 {
					var err error
					if comp, err = compact.New(a.store, duty); err != nil {
						return fmt.Errorf("compact %s duty %g: %w", kind, duty, err)
					}
				}
				// The latency ledger covers the measured churn only; the
				// collector attaches after setup so op quantiles describe the
				// phase the compactor works in.
				p.reset()
				a.runner.WithCollector(p.collector())
				w := vclock.StartWatch(clock)
				var churnBytes int64
				for i := 1; i <= compactionSteps; i++ {
					age := preAge + (endAge-preAge)*float64(i)/compactionSteps
					res, err := a.runner.ChurnToAge(age, workload.ChurnOptions{})
					if err != nil {
						return fmt.Errorf("compact %s churn to %.2f: %w", kind, age, err)
					}
					churnBytes += res.Bytes
					if comp != nil {
						comp.CatchUp(context.Background())
					}
				}
				mbps := units.MBps(churnBytes, w.Seconds())
				f := meanFrags(a.store)
				fragSeries.Add(duty, f)
				tputSeries.Add(duty, mbps)
				if comp != nil {
					comp.PublishMetrics(p.registry(), "compact")
					st := comp.Stats()
					frags.Note("%s duty %.2f: %d rewrites (%s), %.1f virtual s compactor-busy; frags %.2f → %.2f",
						name, duty, st.Rewrites, units.FormatBytes(st.RewriteBytes), st.BusySeconds, before, f)
					c.logf("compact: %s duty %.2f: %d scans, %d rewrites (%s), %.2fs busy (frags %.2f → %.2f, churn %.2f MB/s)",
						kind, duty, st.Scans, st.Rewrites, units.FormatBytes(st.RewriteBytes), st.BusySeconds, before, f, mbps)
				} else {
					c.logf("compact: %s compactor off: frags %.2f → %.2f, churn %.2f MB/s",
						kind, before, f, mbps)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			c.reportPhase("compact", fmt.Sprintf("%s duty=%g", kind, duty), p)
			if duty == duties[len(duties)-1] {
				latTables = appendTable(latTables, p.latencyTable(
					fmt.Sprintf("Compaction %s duty=%g: per-op virtual-time latency (churn phase)", name, duty),
					compactionLatencyMetrics))
			}
		}
	}
	tput.Note("Duty cycle bounds the compactor's share of virtual time; its rewrites charge full read+write cost on the shared clock.")
	for _, t := range latTables {
		t.Note("store.compact is one compactor rewrite (full read+write through the chain); the compactor runs between churn increments, so foreground op quantiles hold none of its time")
	}
	return append([]*stats.Table{frags, tput}, latTables...), nil
}

// compactionLatencyMetrics are the histograms the compact sweep
// prints: foreground op latencies between compactor steps plus the
// per-rewrite cost of the compactor itself.
var compactionLatencyMetrics = []string{
	"op.create", "op.replace", "op.delete", "op.read", "store.compact",
}

package harness

import (
	"repro/internal/blob"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// This file is the experiments' observability plumbing. Each
// instrumented arm gets a probe: a fresh registry plus a collector
// bound to the arm's virtual clock and phase label (and the run's
// shared tracer). The probe is nil when observability is off, and
// every method tolerates that, so the experiments read the same with
// or without -obs.

// probe bundles one experiment arm's observability state.
type probe struct {
	reg *obs.Registry
	col *obs.Collector
}

// newProbe builds an arm's probe, or nil when observability is off
// (Obs unset and no report or tracer to imply it).
// missLayer names the obs layer whose read spans mark a cache miss
// (empty for arms without a cache).
func (c Config) newProbe(phase string, clock *vclock.Clock, missLayer string) *probe {
	if !c.Obs && c.Report == nil && c.Tracer == nil {
		return nil
	}
	reg := obs.NewRegistry()
	return &probe{
		reg: reg,
		col: &obs.Collector{
			Registry:  reg,
			Tracer:    c.Tracer,
			Clock:     clock,
			Phase:     phase,
			MissLayer: missLayer,
		},
	}
}

// collector returns the arm's op collector (nil when off), for
// Runner.WithCollector and ReadOptions.Collector.
func (p *probe) collector() *obs.Collector {
	if p == nil {
		return nil
	}
	return p.col
}

// registry returns the arm's registry (nil when off), for
// obs.NewCommitObserver and Compactor.PublishMetrics.
func (p *probe) registry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// wrap instruments store as the named obs layer; a nil probe returns
// store unchanged.
func (p *probe) wrap(store blob.Store, layer string) blob.Store {
	if p == nil {
		return store
	}
	return obs.Wrap(store, layer, p.reg)
}

// observe returns spec with its volumes instrumented as obs layer
// "store"; a nil probe returns spec unchanged.
func (p *probe) observe(spec stack.Spec) stack.Spec {
	if p != nil {
		spec.Obs = p.reg
	}
	return spec
}

// reset zeroes the arm's metrics in place — the phase separation a
// warm-up pass needs (alongside cache.ResetStats one layer down).
func (p *probe) reset() {
	if p != nil {
		p.reg.Reset()
	}
}

// latencyTable renders the named histograms as a percentile table
// (p50/p90/p99/p99.9/max, virtual ms); nil when the probe is off or
// none of the names recorded anything.
func (p *probe) latencyTable(title string, names []string) *stats.Table {
	if p == nil {
		return nil
	}
	t := obs.LatencyTable(title, p.reg.Snapshot(), names)
	if len(t.Series) == 0 {
		return nil
	}
	return t
}

// reportPhase appends the arm's full metric snapshot to the run
// report's section for the given experiment; a nil probe or absent
// report is a no-op.
func (c Config) reportPhase(expID, phase string, p *probe) {
	if p == nil || c.Report == nil {
		return
	}
	c.Report.Section(expID).AddPhase(phase, p.reg.Snapshot())
}

// appendTable appends t to tables when non-nil — the latencyTable
// pattern, which returns nil with observability off.
func appendTable(tables []*stats.Table, t *stats.Table) []*stats.Table {
	if t != nil {
		tables = append(tables, t)
	}
	return tables
}

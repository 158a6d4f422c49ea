// Package compact implements online background compaction — the
// paper's missing chapter. §3.4 warns that defragmentation "imposes
// read/write performance impacts that can outweigh its benefits" but
// never measures the tradeoff; this package makes it measurable. A
// Compactor works in the idle windows of live traffic over any
// blob.Store-backed engine: it scans the store's per-object fragment
// counts (frag.Analyze) and rewrites the worst-fragmented objects into
// contiguous space, metered by a duty cycle on the shared virtual
// clock, so the rewrite traffic's cost is charged against the same
// throughput numbers it is trying to improve. The caller drives it as
// a step of the simulation (CatchUp between churn increments), so a run
// at one seed is reproducible whatever the duty cycle.
//
// The compactor needs no engine-specific hooks: it drives the
// blob.Rewriter capability, which core.FileStore, core.DBStore and
// shard.Store implement and blob.As finds beneath wrapper layers such
// as cache.Store. Over a shard.Store, one Compactor keeps one duty
// account: its scan spans every shard, and the shard layer routes each
// rewrite to the key's owner. Every rewrite publishes a fresh object
// version, so readers pinned to the old layout fail with a typed error
// rather than observing a torn rewrite.
package compact

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
)

// The compactor's fixed tuning; the duty cycle is its one knob.
const (
	// cycleBudget caps the bytes rewritten per scan cycle. The next cycle
	// re-scans, so a shrinking budget tracks a churning keyspace instead
	// of chasing a stale candidate list.
	cycleBudget = 64 * units.MB
	// minFragments is the least fragment count that makes an object a
	// rewrite candidate: anything discontiguous.
	minFragments = 2
	// triggerFragments is the mean fragments/object below which the
	// store is considered healthy and the compactor idles — the "hot
	// fragmentation" detector.
	triggerFragments = 1.2
)

// Stats counts one compactor's work. All rewrite disk traffic is
// charged on the store's shared virtual clock; BusySeconds is the
// compactor's slice of it — the numerator of the duty-cycle gate.
type Stats struct {
	// Scans counts candidate-selection passes.
	Scans int64
	// Rewrites counts objects rewritten; RewriteBytes their bytes.
	Rewrites     int64
	RewriteBytes int64
	// SkippedBusy counts rewrites refused because a writer held the key.
	SkippedBusy int64
	// Errors counts rewrite failures other than busy/not-found.
	Errors int64
	// BusySeconds is virtual time consumed by the compactor's own ops.
	BusySeconds float64
}

func (s *Stats) add(o Stats) {
	s.Scans += o.Scans
	s.Rewrites += o.Rewrites
	s.RewriteBytes += o.RewriteBytes
	s.SkippedBusy += o.SkippedBusy
	s.Errors += o.Errors
	s.BusySeconds += o.BusySeconds
}

// Compactor is one compaction worker. It runs no goroutine of its own:
// every rewrite happens on the goroutine that calls CatchUp or RunOnce,
// and a Compactor is driven by one caller at a time. With nothing else
// running during a call, the clock time a rewrite spans is exactly the
// compactor's own work.
//
// A compactor keeps one account: each cycle scans the whole store it
// was given (a shard.Store's scan spans every child) and executes every
// rewrite through the top of the store chain, so shard routing holds,
// under one duty gate. A cache above needs no hook: its readers check
// the store's version before serving from memory.
type Compactor struct {
	store   blob.Store // candidate-selection scope
	exec    blob.Rewriter
	clock   *vclock.Clock
	duty    float64
	startNs int64 // the duty window opens when the compactor is built
	busyNs  int64
	stats   Stats
}

// New builds a compactor over store at the given duty cycle: the
// fraction of virtual time, in [0, 1], the compactor may consume. 0
// disables CatchUp; 1 removes its gate. It fails with an error wrapping
// errors.ErrUnsupported when the store lacks the rewrite capability,
// and with one wrapping blob.ErrBadOption for a duty cycle outside
// [0, 1].
func New(store blob.Store, duty float64) (*Compactor, error) {
	rw, ok := blob.As[blob.Rewriter](store)
	if !ok {
		return nil, fmt.Errorf("%w: %s cannot compact objects", errors.ErrUnsupported, store.Name())
	}
	if err := ValidateDuty(duty); err != nil {
		return nil, err
	}
	return &Compactor{
		store:   store,
		exec:    rw,
		clock:   store.Clock(),
		duty:    duty,
		startNs: store.Clock().Now(),
	}, nil
}

// Stats returns the compactor's cumulative counters.
func (c *Compactor) Stats() Stats { return c.stats }

// RunOnce performs one full scan-and-rewrite cycle with the duty gate
// held open — the offline entry point. It returns the work done by this
// pass alone.
func (c *Compactor) RunOnce(ctx context.Context) Stats {
	return c.cycle(ctx, false)
}

// CatchUp performs duty-gated work during a foreground idle window. It
// works until the gate closes, no work remains or ctx is done: at most
// enough to bring its busy time up to the duty cycle × the virtual time
// elapsed since the compactor was built. A zero duty cycle is a no-op.
func (c *Compactor) CatchUp(ctx context.Context) {
	if c.duty <= 0 {
		return
	}
	for c.gateOpen() {
		if s := c.cycle(ctx, true); s.Rewrites == 0 {
			break
		}
	}
}

// gateOpen reports whether the charged virtual time fits under the
// duty cycle × the virtual time elapsed since the compactor was built.
func (c *Compactor) gateOpen() bool {
	return c.duty >= 1 || float64(c.busyNs) <= c.duty*float64(c.clock.Now()-c.startNs)
}

// charge books one operation's virtual time as busy time.
//
//fragvet:ignore vclockpurity duty-cycle bookkeeping only; the store already advanced the clock during the rewrite being charged
func (c *Compactor) charge(s *Stats, w vclock.Stopwatch) {
	ns := w.Nanoseconds()
	c.busyNs += ns
	s.BusySeconds += float64(ns) / 1e9
}

// cycle runs one scan of the store plus the work it uncovers:
// worst-first rewrites up to cycleBudget. When gated, the duty gate is
// consulted before every rewrite and a closed gate abandons the cycle;
// a done ctx abandons it too. It returns the cycle's work, which it
// also adds to the compactor's counters.
func (c *Compactor) cycle(ctx context.Context, gated bool) (s Stats) {
	if ctx.Err() != nil {
		return s
	}
	defer func() { c.stats.add(s) }()
	rep := frag.Analyze(c.store)
	s.Scans++

	// Rewrite only when fragmentation is hot, worst-first, under the
	// per-cycle byte budget.
	if rep.MeanFragments() < triggerFragments {
		return s
	}
	cands := make([]frag.ObjectReport, 0, len(rep.PerObject))
	for _, o := range rep.PerObject {
		if o.Fragments >= minFragments {
			cands = append(cands, o)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Fragments != cands[j].Fragments {
			return cands[i].Fragments > cands[j].Fragments
		}
		return cands[i].Key < cands[j].Key
	})
	for _, o := range cands {
		if s.RewriteBytes >= cycleBudget || ctx.Err() != nil || gated && !c.gateOpen() {
			break
		}
		w := vclock.StartWatch(c.clock)
		n, err := c.exec.CompactObject(ctx, o.Key)
		c.charge(&s, w)
		switch {
		case err == nil && n > 0:
			s.Rewrites++
			s.RewriteBytes += n
		case errors.Is(err, blob.ErrBusy):
			s.SkippedBusy++
		case errors.Is(err, blob.ErrNotFound):
			// Churned away between scan and rewrite; not an error.
		case err != nil:
			s.Errors++
		}
	}
	return s
}

// ValidateDuty checks a duty-cycle value, failing with an error
// wrapping blob.ErrBadOption outside [0, 1].
func ValidateDuty(d float64) error {
	if !(d >= 0 && d <= 1) { // negated to also catch NaN
		return fmt.Errorf("%w: duty cycle %v outside [0,1]", blob.ErrBadOption, d)
	}
	return nil
}

// ParseDutyList parses a comma-separated duty-cycle sweep spec like
// "0,0.1,0.5" (the fragbench -duty flag). Every value must lie in
// [0, 1]; malformed specs fail with an error wrapping blob.ErrBadOption.
func ParseDutyList(spec string) ([]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("%w: empty duty-cycle list", blob.ErrBadOption)
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad duty cycle %q", blob.ErrBadOption, strings.TrimSpace(p))
		}
		if err := ValidateDuty(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Package compact implements online background compaction — the
// paper's missing chapter. §3.4 warns that defragmentation "imposes
// read/write performance impacts that can outweigh its benefits" but
// never measures the tradeoff; this package makes it measurable. A
// Compactor runs DURING live traffic over any blob.Store-backed engine:
// it watches per-store fragmentation (the same Snapshot statistic the
// shard layer aggregates), rewrites the worst-fragmented objects, and
// coalesces the small-object tail into pack files — all metered by a
// duty cycle on the shared virtual clock, so the rewrite traffic's cost
// is charged against the same throughput numbers it is trying to
// improve.
//
// The compactor needs no engine-specific hooks: it drives the
// blob.Rewriter and blob.Packer capabilities, which core.FileStore,
// core.DBStore, shard.Store, and cache.Store all implement. Every
// rewrite publishes a fresh object version, so readers pinned to the
// old layout fail with a typed error rather than observing a torn
// rewrite.
package compact

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
)

// ErrUnsupported reports a store without the rewrite capability.
var ErrUnsupported = errors.New("compact: store does not support object rewrite")

// Config tunes one Compactor.
type Config struct {
	// DutyCycle is the fraction of virtual time the compactor may
	// consume, in [0, 1]. The compactor stalls whenever its own charged
	// virtual time exceeds DutyCycle × elapsed virtual time since Start,
	// so it only works in the idle windows foreground traffic leaves.
	// 0 disables the compactor; 1 removes the gate.
	DutyCycle float64

	// CycleBudget caps the bytes rewritten per scan cycle (default
	// 64 MB). The next cycle re-scans, so a shrinking budget tracks a
	// churning keyspace instead of chasing a stale candidate list.
	CycleBudget int64

	// MinFragments is the least fragment count that makes an object a
	// rewrite candidate (default 2: anything discontiguous).
	MinFragments int

	// TriggerFragments is the mean fragments/object below which the
	// store is considered healthy and the rewrite stage idles (default
	// 1.2) — the "hot fragmentation" detector.
	TriggerFragments float64

	// PackThreshold marks objects of at most this many bytes as
	// small-object-tail pack candidates (default 256 KB). Packing only
	// runs against stores with the Packer capability.
	PackThreshold int64

	// PackBatch is the most members per pack attempt (default 64).
	PackBatch int
}

func (cfg Config) withDefaults() Config {
	if cfg.CycleBudget == 0 {
		cfg.CycleBudget = 64 * units.MB
	}
	if cfg.MinFragments == 0 {
		cfg.MinFragments = 2
	}
	if cfg.TriggerFragments == 0 {
		cfg.TriggerFragments = 1.2
	}
	if cfg.PackThreshold == 0 {
		cfg.PackThreshold = 256 * units.KB
	}
	if cfg.PackBatch == 0 {
		cfg.PackBatch = 64
	}
	return cfg
}

// Stats counts one compactor's work. All rewrite and pack disk traffic
// is charged on the store's shared virtual clock; BusySeconds is the
// compactor's slice of it — the numerator of the duty-cycle gate.
type Stats struct {
	// Scans counts candidate-selection passes.
	Scans int64
	// Rewrites counts objects rewritten; RewriteBytes their bytes.
	Rewrites     int64
	RewriteBytes int64
	// Packs counts pack extents built; PackedObjects and PackedBytes
	// the members coalesced into them.
	Packs         int64
	PackedObjects int64
	PackedBytes   int64
	// SkippedBusy counts rewrites refused because a writer held the key.
	SkippedBusy int64
	// Errors counts rewrite or pack failures other than busy/not-found.
	Errors int64
	// BusySeconds is virtual time consumed by the compactor's own ops.
	BusySeconds float64
}

func (s *Stats) add(o Stats) {
	s.Scans += o.Scans
	s.Rewrites += o.Rewrites
	s.RewriteBytes += o.RewriteBytes
	s.Packs += o.Packs
	s.PackedObjects += o.PackedObjects
	s.PackedBytes += o.PackedBytes
	s.SkippedBusy += o.SkippedBusy
	s.Errors += o.Errors
	s.BusySeconds += o.BusySeconds
}

func (s Stats) String() string {
	return fmt.Sprintf("%d scans, %d rewrites (%s), %d packs (%d objects, %s), %.2fs busy",
		s.Scans, s.Rewrites, units.FormatBytes(s.RewriteBytes),
		s.Packs, s.PackedObjects, units.FormatBytes(s.PackedBytes), s.BusySeconds)
}

// Compactor is one background compaction worker. Start launches its
// goroutine; Stop blocks until it drains. The zero duty cycle makes
// Start a no-op, so a disabled compactor can flow through the same
// harness code path as an enabled one. Compactor implements
// workload.Background structurally.
type Compactor struct {
	exec  blob.Rewriter
	pack  blob.Packer // nil when the store cannot pack
	scan  frag.Source // candidate-selection scope (a shard child in a Fleet)
	clock *vclock.Clock
	cfg   Config
	ctx   context.Context // carried into background-loop cycles

	mu        sync.Mutex
	stats     Stats
	busyNs    int64
	startNs   int64
	running   bool
	packTried map[string]bool

	stop chan struct{}
	done chan struct{}
}

// New builds a compactor over store, scanning and rewriting the whole
// store. It fails with ErrUnsupported when the store lacks the rewrite
// capability, and with an error wrapping blob.ErrBadOption for a duty
// cycle outside [0, 1].
func New(store blob.Store, cfg Config) (*Compactor, error) {
	return newScoped(store, store, cfg)
}

// newScoped builds a compactor that selects candidates from scan but
// executes rewrites through store — the shape a shard Fleet uses so
// per-child scans stay cheap while rewrites flow through the top of the
// store chain (cache invalidation, shard routing).
func newScoped(store blob.Store, scan frag.Source, cfg Config) (*Compactor, error) {
	rw, ok := blob.As[blob.Rewriter](store)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, store.Name())
	}
	if err := ValidateDuty(cfg.DutyCycle); err != nil {
		return nil, err
	}
	c := &Compactor{
		exec:      rw,
		scan:      scan,
		clock:     store.Clock(),
		cfg:       cfg.withDefaults(),
		ctx:       context.Background(),
		packTried: make(map[string]bool),
	}
	c.pack, _ = blob.As[blob.Packer](store)
	return c, nil
}

// WithContext sets the context the background loop's rewrites and
// packs carry, so cancelling it stops in-flight loop work at the next
// store operation. Call before Start; the default is
// context.Background().
func (c *Compactor) WithContext(ctx context.Context) *Compactor {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctx = ctx
	return c
}

// Stats returns a snapshot of the compactor's counters.
func (c *Compactor) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Start launches the background loop. A zero duty cycle (the "off" arm
// of an experiment) is a no-op. Start/Stop pairs may not overlap.
func (c *Compactor) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running || c.cfg.DutyCycle <= 0 {
		return
	}
	c.running = true
	c.startNs = c.clock.Now()
	c.busyNs = 0
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.ctx, c.stop, c.done)
}

// Stop halts the background loop and blocks until it drains. Stopping
// a compactor that is not running is a no-op.
func (c *Compactor) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

// RunOnce performs one full scan-and-rewrite cycle synchronously, with
// the duty gate held open — the offline entry point benchmarks and
// recovery drills use. It returns the work done by this cycle alone.
func (c *Compactor) RunOnce(ctx context.Context) Stats {
	before := c.Stats()
	c.cycle(ctx, func() bool { return true })
	after := c.Stats()
	after.Scans -= before.Scans
	after.Rewrites -= before.Rewrites
	after.RewriteBytes -= before.RewriteBytes
	after.Packs -= before.Packs
	after.PackedObjects -= before.PackedObjects
	after.PackedBytes -= before.PackedBytes
	after.SkippedBusy -= before.SkippedBusy
	after.Errors -= before.Errors
	after.BusySeconds -= before.BusySeconds
	return after
}

// CatchUp performs duty-gated work synchronously during a foreground
// idle window and returns as soon as the gate closes or no work
// remains. Unlike the background loop it never waits on real time, so
// a simulation driving virtual time from a single goroutine can give
// the compactor its duty-cycle share deterministically: each call does
// at most enough work to bring busy time up to DutyCycle × elapsed
// virtual time since Start. A zero duty cycle is a no-op.
func (c *Compactor) CatchUp(ctx context.Context) {
	if c.cfg.DutyCycle <= 0 {
		return
	}
	for c.gateOpen() {
		if !c.cycle(ctx, c.gateOpen) {
			return
		}
	}
}

// loop is the background worker: scan, work, idle, repeat. It carries
// the WithContext context into every cycle so cancellation reaches the
// store operations the loop issues.
func (c *Compactor) loop(ctx context.Context, stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		worked := c.cycle(ctx, func() bool { return c.gate(stop) })
		if !worked {
			// Nothing to do right now; wait for foreground traffic to
			// create work (and advance the virtual clock).
			select {
			case <-stop:
				return
			//fragvet:ignore vclockpurity idle backoff waits on real time for foreground traffic to advance the virtual clock
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}

// gateOpen reports whether the compactor's charged virtual time fits
// under DutyCycle × elapsed virtual time since Start — the idle-window
// detector, without waiting.
func (c *Compactor) gateOpen() bool {
	if c.cfg.DutyCycle >= 1 {
		return true
	}
	c.mu.Lock()
	busy, start := c.busyNs, c.startNs
	c.mu.Unlock()
	return float64(busy) <= c.cfg.DutyCycle*float64(c.clock.Now()-start)
}

// gate blocks until the duty gate opens. The clock only advances when
// SOMETHING does work, so the compactor waits on real time for
// foreground traffic to open the window. Returns false when stopped
// while waiting.
func (c *Compactor) gate(stop chan struct{}) bool {
	for {
		if c.gateOpen() {
			return true
		}
		select {
		case <-stop:
			return false
		//fragvet:ignore vclockpurity the duty gate polls real time because only foreground traffic advances the virtual clock
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// charge accounts one operation's virtual time as compactor busy time.
//
//fragvet:ignore vclockpurity duty-cycle bookkeeping only; the store already advanced the clock during the rewrite being charged
func (c *Compactor) charge(w vclock.Stopwatch) {
	ns := w.Nanoseconds()
	c.mu.Lock()
	c.busyNs += ns
	c.stats.BusySeconds += float64(ns) / 1e9
	c.mu.Unlock()
}

// cycle runs one scan plus the work it uncovers: a pack attempt over
// the small-object tail, then worst-first rewrites up to CycleBudget.
// admit is consulted before every operation — the blocking duty gate
// for the background loop, its non-blocking twin for CatchUp, and a
// constant true for RunOnce; a false return abandons the cycle. It
// reports whether any object was moved.
func (c *Compactor) cycle(ctx context.Context, admit func() bool) bool {
	rep := frag.Analyze(c.scan)
	c.mu.Lock()
	c.stats.Scans++
	c.mu.Unlock()

	worked := false

	// Pack stage: coalesce the small-object tail. Keys already tried
	// (packed or refused) are skipped until they churn back as fresh
	// versions — the store itself filters repacks.
	if c.pack != nil {
		var smalls []string
		for _, o := range rep.PerObject {
			if o.Bytes > 0 && o.Bytes <= c.cfg.PackThreshold && !c.packTried[o.Key] {
				smalls = append(smalls, o.Key)
				if len(smalls) >= c.cfg.PackBatch {
					break
				}
			}
		}
		if len(smalls) >= 2 {
			if !admit() {
				return worked
			}
			w := vclock.StartWatch(c.clock)
			packed, err := c.pack.PackObjects(ctx, smalls)
			c.charge(w)
			c.mu.Lock()
			for _, k := range smalls {
				c.packTried[k] = true
			}
			if err != nil {
				c.stats.Errors++
			} else if len(packed) > 0 {
				c.stats.Packs++
				c.stats.PackedObjects += int64(len(packed))
				for _, k := range packed {
					for _, o := range rep.PerObject {
						if o.Key == k {
							c.stats.PackedBytes += o.Bytes
							break
						}
					}
				}
				worked = true
			}
			c.mu.Unlock()
		}
	}

	// Rewrite stage: only when fragmentation is hot, worst-first, under
	// the per-cycle byte budget.
	if rep.MeanFragments() < c.cfg.TriggerFragments {
		return worked
	}
	cands := make([]frag.ObjectReport, 0, len(rep.PerObject))
	for _, o := range rep.PerObject {
		if o.Fragments >= c.cfg.MinFragments {
			cands = append(cands, o)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Fragments != cands[j].Fragments {
			return cands[i].Fragments > cands[j].Fragments
		}
		return cands[i].Key < cands[j].Key
	})
	var movedBytes int64
	for _, o := range cands {
		if movedBytes >= c.cfg.CycleBudget {
			break
		}
		if !admit() {
			return worked
		}
		w := vclock.StartWatch(c.clock)
		n, err := c.exec.CompactObject(ctx, o.Key)
		c.charge(w)
		c.mu.Lock()
		switch {
		case err == nil && n > 0:
			c.stats.Rewrites++
			c.stats.RewriteBytes += n
			movedBytes += n
			worked = true
		case errors.Is(err, blob.ErrBusy):
			c.stats.SkippedBusy++
		case errors.Is(err, blob.ErrNotFound):
			// Churned away between scan and rewrite; not an error.
		case err != nil:
			c.stats.Errors++
		}
		c.mu.Unlock()
	}
	return worked
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

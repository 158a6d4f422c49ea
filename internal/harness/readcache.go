package harness

import (
	"context"
	"fmt"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// cacheSizes returns the "readcache" experiment's capacity sweep:
// Config.CacheBytes, or no cache and then two memory budgets.
func (c Config) cacheSizes() []int64 {
	if len(c.CacheBytes) > 0 {
		return c.CacheBytes
	}
	return []int64{0, 64 * units.MB, 256 * units.MB}
}

// ReadCacheSweep measures the read-path cache layer: age each backend
// to a fixed fragmentation level, then read the SAME aged layout
// through cache.Store wrappers of increasing capacity with a
// Zipf-popularity read mix (hot objects dominate, the regime real
// deployments cache for). Per capacity point the sweep runs one cold
// pass that fills the cache, resets the counters, and measures a warm
// pass: the reported hit rate and effective MB/s therefore describe
// steady-state traffic, not compulsory misses — the same
// phase-separation the database buffer pool's ResetPoolStats provides
// one layer down.
//
// The cache charges hits at memory bandwidth on the shared virtual
// clock (hit-rate-aware virtual-time accounting), so effective read
// throughput scales with hit rate while the fragments/object of the
// layout underneath stays fixed: fragmentation priced only on the cold
// tail.
func ReadCacheSweep(c Config) ([]*stats.Table, error) {
	ctx := context.Background()
	caps := c.cacheSizes()
	objSize := units.RoundUp(c.VolumeBytes/400, 64*units.KB)
	dist := workload.Constant{Size: objSize}
	targetAge := c.MaxAge / 2
	pop, err := workload.NewZipfPopularity(1.2)
	if err != nil {
		return nil, err
	}

	hits := stats.NewTable(
		fmt.Sprintf("Read cache: steady-state hit rate vs capacity (%s reads, %s objects, age %.1f)",
			pop.Name(), units.FormatBytes(objSize), targetAge),
		"Cache MB", "Hit rate")
	tput := stats.NewTable("Read cache: effective read throughput vs capacity",
		"Cache MB", "MB/sec")

	var latTables []*stats.Table
	for _, st := range systems {
		kind, name := st.kind, st.name
		hitSeries := hits.AddSeries(name)
		tputSeries := tput.AddSeries(name)

		err := c.age(vclock.New(), c.spec(st.backend), dist, []float64{targetAge}, drive{}, func(a arm) error {
			frags, keys := meanFrags(a.store), a.runner.Keys()
			for _, capBytes := range caps {
				// The cache layers are built here, not by stack.Build: every
				// capacity must read the SAME aged layout, and re-aging a fresh
				// stack per capacity would change what the sweep measures.
				// Per-arm observability: the aged store is wrapped as the
				// "disk" layer and the cache (when present) as the "cache"
				// layer, so a read op's span set shows which layers it
				// touched — a read with no disk read span was a cache hit
				// (the collector's MissLayer classification).
				p := c.newProbe(fmt.Sprintf("readcache %s cap=%s", kind, units.FormatBytes(capBytes)),
					a.store.Clock(), "disk")
				rs := p.wrap(a.store, "disk")
				var cs *cache.Store
				if capBytes > 0 {
					var err error
					if cs, err = cache.New(rs, cache.WithCapacity(capBytes)); err != nil {
						return err
					}
					rs = p.wrap(cs, "cache")
				}
				if d, ok := blob.As[*core.DBStore](a.store); ok {
					// Keep the engine's metadata-pool rate phase-local too.
					d.Engine().ResetPoolStats()
				}
				// Cold pass fills the cache; its compulsory misses are then
				// dropped from the ledger before the measured warm pass. The
				// uncached arm has nothing to warm, so it skips straight to
				// the measurement.
				if cs != nil {
					if _, err := workload.ReadPhase(workload.NewExecutor(rs).WithContext(ctx),
						keys, c.ReadSamples, c.Seed+17, pop); err != nil {
						return fmt.Errorf("readcache %s warmup: %w", kind, err)
					}
					cs.ResetStats()
					p.reset()
				}
				res, err := workload.ReadPhase(workload.NewExecutor(rs).WithContext(ctx).WithCollector(p.collector()),
					keys, c.ReadSamples, c.Seed+18, pop)
				if err != nil {
					return fmt.Errorf("readcache %s measure: %w", kind, err)
				}
				capMB := float64(capBytes) / float64(units.MB)
				var st cache.Stats
				if cs != nil {
					st = cs.CacheStats()
				}
				hitSeries.Add(capMB, st.HitRate())
				tputSeries.Add(capMB, res.MBps)
				c.reportPhase("readcache", fmt.Sprintf("%s cap=%s", kind, units.FormatBytes(capBytes)), p)
				if capBytes == caps[len(caps)-1] {
					latTables = appendTable(latTables, p.latencyTable(
						fmt.Sprintf("Read cache %s cap=%s: per-op virtual-time latency (warm pass)",
							name, units.FormatBytes(capBytes)),
						readcacheLatencyMetrics))
				}
				c.logf("readcache %s cap=%s: hit rate %.2f, %.1f MB/s, %s resident, %d evictions (%.2f frags/obj underneath)",
					kind, units.FormatBytes(capBytes), st.HitRate(), res.MBps,
					units.FormatBytes(st.ResidentBytes), st.Evictions, frags)
			}
			hits.Note("%s layout under the cache: %.2f fragments/object at age %.1f — unchanged across the sweep (the cache is write-through; only the read path moves)",
				name, frags, targetAge)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	hits.Note("cap 0 MB = no cache layer; warm-pass rates after a cold fill pass (compulsory misses excluded)")
	tput.Note("hits are charged at memory bandwidth (%.0f MB/s) on the virtual clock instead of per-fragment disk requests, so effective MB/s scales with the hit rate while the layout's fragmentation is priced only on the cold tail",
		cache.DefaultMemoryMBps)
	for _, t := range latTables {
		t.Note("read.hit/read.miss split by span composition: a read op that recorded no disk read span was served from cache memory; disk.* rows price only the cold tail")
	}
	return append([]*stats.Table{hits, tput}, latTables...), nil
}

// readcacheLatencyMetrics are the histograms the readcache sweep
// prints: whole-op read latency, its hit/miss split, and the cache and
// disk layers' own read timings.
var readcacheLatencyMetrics = []string{
	"op.read", "read.hit", "read.miss",
	"cache.open", "cache.readall", "disk.open", "disk.readall",
}

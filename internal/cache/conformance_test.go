package cache_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// build adapts a stack.Spec into a conformance factory; the suite's
// per-test options (capacity, disk mode) ride in Spec.Options.
func build(t *testing.T, spec stack.Spec) conformance.Factory {
	return func(opts ...blob.Option) blob.Store {
		spec := spec
		spec.Options = opts
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// inners are the stacks the cache is pinned over: both single-volume
// backends and a 4-shard mixed fleet (2 filesystem + 2 database
// children on one clock). The cache budget is deliberately smaller than
// the suite's working sets, so the contract holds through fills AND
// evictions.
var inners = map[string]stack.Spec{
	"Filesystem":    {Backends: []string{stack.File}, CacheBytes: 8 * units.MB},
	"Database":      {Backends: []string{stack.DB}, CacheBytes: 8 * units.MB},
	"Sharded4Mixed": {Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4, CacheBytes: 8 * units.MB},
}

// TestCacheConformance pins the cached store to the exact cross-backend
// contract of the stores it wraps: both single-volume backends and a
// 4-shard mixed fleet, group commit off and on. The cache layer must
// add no dialect — version pinning, typed errors, safe-write semantics,
// and concurrency behaviour all hold with hits served from memory.
func TestCacheConformance(t *testing.T) {
	for name, spec := range inners {
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, build(t, spec))
		})
		t.Run(name+"/GroupCommit", func(t *testing.T) {
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, 200*time.Microsecond
			conformance.Run(t, build(t, spec))
		})
	}
}

// TestCacheCapacitySweepConformance re-runs the suite over the
// filesystem backend at cache budgets from pathological (one small
// object) to effectively infinite, so eviction pressure cannot change
// visible semantics either.
func TestCacheCapacitySweepConformance(t *testing.T) {
	for _, capBytes := range []int64{64 * units.KB, 2 * units.MB, units.GB} {
		t.Run(fmt.Sprintf("cap=%s", units.FormatBytes(capBytes)), func(t *testing.T) {
			conformance.Run(t, build(t, stack.Spec{Backends: []string{stack.File}, CacheBytes: capBytes}))
		})
	}
}

// TestLoneCommitDoesNotWait: the cache only forwards commits, so a lone
// writer through it is still alone on the store beneath and flushes at
// once — single volume and 4-shard fleet alike.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, spec := range inners {
		t.Run(name, func(t *testing.T) {
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, conformance.GroupCommitCeiling
			c := build(t, spec)(blob.WithCapacity(64 * units.MB))
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, c, conformance.PutKey(c, key))
			}
		})
	}
}

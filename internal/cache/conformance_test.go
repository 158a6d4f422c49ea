package cache_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

// wrap adapts an inner-store factory into a cache-wrapped conformance
// factory. The cache budget is deliberately smaller than the suite's
// working sets, so the contract holds through fills AND evictions.
func wrap(t *testing.T, mkInner func(opts ...blob.Option) blob.Store) conformance.Factory {
	return func(opts ...blob.Option) blob.Store {
		c, err := cache.New(mkInner(opts...), cache.WithCapacity(8*units.MB))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = blob.CloseStore(c) })
		return c
	}
}

func fileInner(opts ...blob.Option) blob.Store {
	s, err := core.NewFileStore(vclock.New(), opts...)
	if err != nil {
		panic(err)
	}
	return s
}

func dbInner(opts ...blob.Option) blob.Store {
	s, err := core.NewDBStore(vclock.New(), opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// mixedShardInner builds a 4-shard mixed fleet (2 filesystem + 2
// database children on one clock).
func mixedShardInner(opts ...blob.Option) blob.Store {
	clock := vclock.New()
	children := make([]blob.Store, 4)
	for i := range children {
		var err error
		if i%2 == 0 {
			children[i], err = core.NewFileStore(clock, opts...)
		} else {
			children[i], err = core.NewDBStore(clock, opts...)
		}
		if err != nil {
			panic(err)
		}
	}
	s, err := shard.New(children...)
	if err != nil {
		panic(err)
	}
	return s
}

// TestCacheConformance pins the cached store to the exact cross-backend
// contract of the stores it wraps: both single-volume backends and a
// 4-shard mixed fleet, group commit off and on. The cache layer must
// add no dialect — version pinning, typed errors, safe-write semantics,
// and concurrency behaviour all hold with hits served from memory.
func TestCacheConformance(t *testing.T) {
	inners := []struct {
		name string
		mk   func(opts ...blob.Option) blob.Store
	}{
		{"Filesystem", fileInner},
		{"Database", dbInner},
		{"Sharded4Mixed", mixedShardInner},
	}
	for _, in := range inners {
		t.Run(in.name, func(t *testing.T) {
			conformance.Run(t, wrap(t, in.mk))
		})
		t.Run(in.name+"/GroupCommit", func(t *testing.T) {
			mk := in.mk
			conformance.Run(t, wrap(t, func(opts ...blob.Option) blob.Store {
				return mk(append(opts, blob.WithGroupCommit(8, 200*time.Microsecond))...)
			}))
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
			conformance.Run(t, func(opts ...blob.Option) blob.Store {
				c, err := cache.New(fileInner(opts...), cache.WithCapacity(capBytes))
				if err != nil {
					t.Fatal(err)
				}
				return c
			})
		})
	}
}

// TestLoneCommitDoesNotWait: the cache only forwards commits, so a lone
// writer through it is still alone on the store beneath and flushes at
// once — single volume and 4-shard fleet alike.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, mk := range map[string]func(opts ...blob.Option) blob.Store{
		"Filesystem": fileInner, "Database": dbInner, "Sharded4Mixed": mixedShardInner,
	} {
		t.Run(name, func(t *testing.T) {
			c := wrap(t, mk)(blob.WithCapacity(64*units.MB),
				blob.WithGroupCommit(8, conformance.GroupCommitCeiling)).(*cache.Store)
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, c.CommitStats, conformance.PutKey(c, key))
			}
		})
	}
}

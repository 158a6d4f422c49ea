package cache_test

import (
	"testing"

	"repro/internal/blob/conformance"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// inners are the stacks under the cache in this package's tests: both
// single-volume backends and a 4-shard mixed fleet.
var inners = map[string]stack.Spec{
	"Filesystem":    {Backends: []string{stack.File}},
	"Database":      {Backends: []string{stack.DB}},
	"Sharded4Mixed": {Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4},
}

// TestLoneCommitDoesNotWait: the cache only forwards commits, so a lone
// writer through it is still alone on the store beneath and flushes at
// once — single volume and 4-shard fleet alike.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, spec := range inners {
		t.Run(name, func(t *testing.T) {
			spec.Capacity, spec.CacheBytes = 64*units.MB, 8*units.MB
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, conformance.GroupCommitCeiling
			c, err := stack.Build(vclock.New(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, c, conformance.PutKey(c, key))
			}
		})
	}
}

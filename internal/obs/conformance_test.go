package obs_test

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// wrapped adapts a stack.Spec into a conformance factory with the layer
// under test, an obs.Store recording into reg, on top of the built
// stack — above the shard fan-out, the one position stack.Build (which
// instruments each volume) does not cover. The suite's per-test options
// (capacity, disk mode) ride in Spec.Options with extra after them.
func wrapped(t *testing.T, spec stack.Spec, reg *obs.Registry, extra ...blob.Option) conformance.Factory {
	return func(opts ...blob.Option) blob.Store {
		spec := spec
		spec.Options = append(opts, extra...)
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			panic(err)
		}
		return obs.Wrap(s, "store", reg)
	}
}

// inners are the stacks the obs layer is pinned over: both
// single-volume backends and a 4-shard mixed fleet (2 filesystem + 2
// database children on one clock).
var inners = map[string]stack.Spec{
	"Filesystem":    {Backends: []string{stack.File}},
	"Database":      {Backends: []string{stack.DB}},
	"Sharded4Mixed": {Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4},
}

// TestObsStoreConformance pins the instrumented store to the exact
// cross-backend contract of the store it wraps: both single-volume
// backends and a 4-shard mixed fleet, recording enabled and disabled,
// group commit off and on (with the commit observer attached). The obs
// layer must add no dialect — sentinels, version pinning, safe-write
// semantics, and context cancellation all pass through while every op
// is being timed.
func TestObsStoreConformance(t *testing.T) {
	for name, spec := range inners {
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, wrapped(t, spec, obs.NewRegistry()))
		})
		t.Run(name+"/Disabled", func(t *testing.T) {
			conformance.Run(t, wrapped(t, spec, nil))
		})
		t.Run(name+"/GroupCommit", func(t *testing.T) {
			reg := obs.NewRegistry()
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, 200*time.Microsecond
			conformance.Run(t, wrapped(t, spec, reg,
				blob.WithCommitObserver(obs.NewCommitObserver(reg, "store"))))
		})
	}
}

// TestObsStoreStacked runs the suite over a doubly-wrapped chain — the
// readcache experiment's shape (a layer above and a layer below) minus
// the cache — proving composition itself changes nothing.
func TestObsStoreStacked(t *testing.T) {
	reg := obs.NewRegistry()
	conformance.Run(t, wrapped(t,
		stack.Spec{Backends: []string{stack.File}, ObsLayer: "disk", Registry: reg}, reg))
}

// TestLoneCommitDoesNotWait: the observability wrapper and the commit
// observer only watch the pipeline; a lone writer through them still
// flushes at once.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, spec := range inners {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, conformance.GroupCommitCeiling
			s := wrapped(t, spec, reg, blob.WithCommitObserver(obs.NewCommitObserver(reg, "store")))(
				blob.WithCapacity(64 * units.MB))
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, key))
			}
		})
	}
}

package obs_test

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

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

// TestObsStoreConformance pins the instrumented store to the exact
// cross-backend contract of the store it wraps: both single-volume
// backends and a 4-shard mixed fleet, recording enabled and disabled,
// group commit off and on (with the commit observer attached). The obs
// layer must add no dialect — sentinels, version pinning, safe-write
// semantics, and context cancellation all pass through while every op
// is being timed.
func TestObsStoreConformance(t *testing.T) {
	inners := []struct {
		name string
		mk   func(opts ...blob.Option) blob.Store
	}{
		{"Filesystem", fileInner},
		{"Database", dbInner},
		{"Sharded4Mixed", mixedShardInner},
	}
	for _, in := range inners {
		mk := in.mk
		t.Run(in.name, func(t *testing.T) {
			conformance.Run(t, func(opts ...blob.Option) blob.Store {
				return obs.Wrap(mk(opts...), "store", obs.NewRegistry())
			})
		})
		t.Run(in.name+"/Disabled", func(t *testing.T) {
			conformance.Run(t, func(opts ...blob.Option) blob.Store {
				return obs.Wrap(mk(opts...), "store", nil)
			})
		})
		t.Run(in.name+"/GroupCommit", func(t *testing.T) {
			conformance.Run(t, func(opts ...blob.Option) blob.Store {
				reg := obs.NewRegistry()
				s := mk(append(opts,
					blob.WithGroupCommit(8, 200*time.Microsecond),
					blob.WithCommitObserver(obs.NewCommitObserver(reg, "store")))...)
				return obs.Wrap(s, "store", reg)
			})
		})
	}
}

// TestObsStoreStacked runs the suite over a doubly-wrapped chain — the
// readcache experiment's shape (a layer above and a layer below) minus
// the cache — proving composition itself changes nothing.
func TestObsStoreStacked(t *testing.T) {
	conformance.Run(t, func(opts ...blob.Option) blob.Store {
		reg := obs.NewRegistry()
		return obs.Wrap(obs.Wrap(fileInner(opts...), "disk", reg), "cache", reg)
	})
}

// TestLoneCommitDoesNotWait: the observability wrapper and the commit
// observer only watch the pipeline; a lone writer through them still
// flushes at once.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, mk := range map[string]func(opts ...blob.Option) blob.Store{
		"Filesystem": fileInner, "Database": dbInner, "Sharded4Mixed": mixedShardInner,
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := obs.Wrap(mk(blob.WithCapacity(64*units.MB),
				blob.WithGroupCommit(8, conformance.GroupCommitCeiling),
				blob.WithCommitObserver(obs.NewCommitObserver(reg, "store"))), "store", reg)
			defer blob.CloseStore(s)
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, s.CommitStats, conformance.PutKey(s, key))
			}
		})
	}
}

package compact

import (
	"context"

	"repro/internal/blob"
)

// Fleet runs one Compactor per shard of a sharded store — each child
// gets its own scan scope and duty-cycle account, mirroring how a real
// deployment compacts shards independently — with rewrites executed
// through the TOP of the store chain, so they reach the first Rewriter
// blob.As finds there and shard routing holds. A cache above needs no
// hook: its readers check the store's version before serving from
// memory. Over an unsharded store a Fleet degenerates to a single
// compactor. Like a Compactor, a Fleet is driven by one caller.
type Fleet struct {
	comps []*Compactor
	duty  float64
}

// sharded is the structural shard-enumeration capability (shard.Store).
type sharded interface {
	NumShards() int
	Shard(int) blob.Store
}

// NewFleet builds per-shard compactors for store at the given duty
// cycle (see New). Wrapper layers are seen through to find the shard
// fan-out (scans go straight to the children), but every rewrite still
// executes through store itself.
func NewFleet(store blob.Store, duty float64) (*Fleet, error) {
	scopes := []blob.Store{store}
	if sh, ok := blob.As[sharded](store); ok {
		scopes = make([]blob.Store, sh.NumShards())
		for i := range scopes {
			scopes[i] = sh.Shard(i)
		}
	}
	f := &Fleet{duty: duty}
	for _, scan := range scopes {
		c, err := newScoped(store, scan, duty)
		if err != nil {
			return nil, err
		}
		f.comps = append(f.comps, c)
	}
	return f, nil
}

// Size returns the number of per-shard compactors.
func (f *Fleet) Size() int { return len(f.comps) }

// RunOnce runs one ungated cycle on every per-shard compactor,
// returning the aggregated work of this pass.
func (f *Fleet) RunOnce(ctx context.Context) Stats {
	var total Stats
	for _, c := range f.comps {
		total.add(c.RunOnce(ctx))
	}
	return total
}

// CatchUp gives every per-shard compactor one duty-gated work
// opportunity (see Compactor.CatchUp).
func (f *Fleet) CatchUp(ctx context.Context) {
	for _, c := range f.comps {
		c.CatchUp(ctx)
	}
}

// Stats aggregates the counters of the fleet's compactors.
func (f *Fleet) Stats() Stats {
	var total Stats
	for _, c := range f.comps {
		total.add(c.Stats())
	}
	return total
}

// Package stack is the one place a store stack is assembled. A Spec
// names the layers — per-volume backend, capacity, disk mode, group
// commit, an optional obs layer, the shard fan-out, a read cache — and
// Build composes them in the one fixed order, core → (obs) → shard →
// cache, with every volume on one virtual clock. The paper's comparison
// is valid only because both systems sit behind one get/put interface
// (§4); every command, experiment and example builds that interface
// here, so two reports that print the same Spec measured the same
// stack.
package stack

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
)

// The backend names a Spec accepts.
const (
	File = "file" // core.FileStore: NTFS-style volume plus metadata database
	DB   = "db"   // core.DBStore: BLOB pages in the database engine
)

// Spec describes one store stack. The zero value is not buildable:
// Backends and a capacity are required.
type Spec struct {
	// Backends names each volume's engine, File or DB: one entry for
	// every volume alike, or one entry per shard for a mixed fleet.
	Backends []string
	// Shards is the size of the fleet behind the shard layer. 0 builds
	// a single volume with no shard layer; 1 is a fleet of one, which
	// still pays the layer's routing.
	Shards int
	// Capacity is each volume's data capacity in bytes (not the
	// fleet's). Options may carry a blob.WithCapacity instead.
	Capacity int64
	// Mode selects payload retention on the data drives.
	Mode disk.Mode
	// GroupCommitBatch above 1 enables each volume's group-commit
	// pipeline with GroupCommitDelay as the ceiling on a batch's wait
	// (blob.WithGroupCommit).
	GroupCommitBatch int
	GroupCommitDelay time.Duration
	// Obs, when set, wraps every volume in an obs.Store of layer
	// "store" recording into it.
	Obs *obs.Registry
	// CacheBytes above 0 puts a read cache of that budget on top.
	CacheBytes int64
	// Options are passed to every volume after the options the fields
	// above produce — the experiment-only switches (write-request size,
	// size hint, delayed allocation, owner map, commit observer).
	Options []blob.Option
}

// String renders the spec in the order a request meets the layers'
// options — backend:capacity[*shards], disk mode, group commit, obs,
// cache, then the pass-through switches that change the layout — e.g.
// "file:4G*4|data|gc:8,200µs|cache:32M".
func (s Spec) String() string {
	d := strings.Join(s.Backends, "+") + ":" + units.FormatBytes(s.Capacity)
	if s.Shards > 0 && len(s.Backends) == 1 {
		d += fmt.Sprintf("*%d", s.Shards)
	}
	if s.Mode == disk.DataMode {
		d += "|data"
	} else {
		d += "|meta"
	}
	if s.GroupCommitBatch > 1 {
		d += fmt.Sprintf("|gc:%d,%s", s.GroupCommitBatch, s.GroupCommitDelay)
	}
	if s.Obs != nil {
		d += "|obs"
	}
	if s.CacheBytes > 0 {
		d += "|cache:" + units.FormatBytes(s.CacheBytes)
	}
	o := blob.NewOptions(s.Options...)
	if o.WriteRequestSize != 0 {
		d += "|wreq:" + units.FormatBytes(o.WriteRequestSize)
	}
	if o.SizeHint {
		d += "|hint"
	}
	if o.DelayedAllocation {
		d += "|delayed"
	}
	return d
}

// Build assembles the stack s describes, every volume charging clock.
// A misconfigured spec — an unknown backend, a negative shard count, a
// Backends list that is neither one entry nor one per shard, a negative
// cache budget, a missing capacity — fails with an error wrapping
// blob.ErrBadOption before anything is built.
func Build(clock *vclock.Clock, s Spec) (blob.Store, error) {
	if s.Shards < 0 {
		return nil, fmt.Errorf("%w: shard count %d is negative", blob.ErrBadOption, s.Shards)
	}
	if n := len(s.Backends); n == 0 || n != 1 && n != s.Shards {
		return nil, fmt.Errorf("%w: stack has %d backends for %d shards (want 1 or one per shard)",
			blob.ErrBadOption, n, s.Shards)
	}
	for _, b := range s.Backends {
		if b != File && b != DB {
			return nil, fmt.Errorf("%w: unknown backend %q (want %s or %s)", blob.ErrBadOption, b, File, DB)
		}
	}
	if s.CacheBytes < 0 {
		return nil, fmt.Errorf("%w: cache budget %d is negative", blob.ErrBadOption, s.CacheBytes)
	}
	opts := append([]blob.Option{
		blob.WithCapacity(s.Capacity),
		blob.WithDiskMode(s.Mode),
		blob.WithGroupCommit(s.GroupCommitBatch, s.GroupCommitDelay),
	}, s.Options...)

	// The options are the same for every volume, so a bad one fails on
	// the first, before any commit pipeline exists to be shut down.
	volumes := make([]blob.Store, max(s.Shards, 1))
	for i := range volumes {
		var err error
		if s.Backends[i%len(s.Backends)] == File {
			volumes[i], err = core.NewFileStore(clock, opts...)
		} else {
			volumes[i], err = core.NewDBStore(clock, opts...)
		}
		if err != nil {
			return nil, err
		}
		if s.Obs != nil {
			volumes[i] = obs.Wrap(volumes[i], "store", s.Obs)
		}
	}
	top := volumes[0]
	if s.Shards > 0 {
		sh, err := shard.New(volumes...)
		if err != nil {
			return nil, err
		}
		top = sh
	}
	if s.CacheBytes > 0 {
		c, err := cache.New(top, cache.WithCapacity(s.CacheBytes))
		if err != nil {
			return nil, err
		}
		top = c
	}
	return top, nil
}

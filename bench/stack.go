package main

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// This is the one adapter file: the only place that names the
// constructors of the store stack (core, cache, shard, server, client,
// executor) and the only one that spells fragserve's flags. An API
// rename in those packages is a change here and nowhere else in bench/.

// Group commit as fragserve's -groupcommit flag configures it.
const (
	groupCommitBatch = 8
	groupCommitDelay = 200 * time.Microsecond
)

// stackSpec describes one store stack, built in-process or by fragserve.
type stackSpec struct {
	backend     string // "file" or "db"
	capacity    int64  // per volume
	shards      int    // 1 = single volume
	cacheBytes  int64  // 0 = no cache
	groupCommit bool
	dataMode    bool // retain payload bytes; false = metadata only
}

// String is the stack description every result embeds, in the order a
// request meets the layers' options: backend:capacity[*shards], mode,
// group commit, cache.
func (s stackSpec) String() string {
	d := s.backend + ":" + units.FormatBytes(s.capacity)
	if s.shards > 1 {
		d += fmt.Sprintf("*%d", s.shards)
	}
	if s.dataMode {
		d += "|data"
	} else {
		d += "|meta"
	}
	if s.groupCommit {
		d += fmt.Sprintf("|gc:%d,%s", groupCommitBatch, groupCommitDelay)
	}
	if s.cacheBytes > 0 {
		d += "|cache:" + units.FormatBytes(s.cacheBytes)
	}
	return d
}

// serveFlags spells the spec as fragserve flags. Flags left at
// fragserve's defaults are not passed, so whatever ships is measured.
func (s stackSpec) serveFlags(addr string) []string {
	f := []string{"-addr", addr, "-backend", s.backend, "-capacity", units.FormatBytes(s.capacity)}
	if s.shards > 1 {
		f = append(f, "-shards", fmt.Sprint(s.shards))
	}
	if s.cacheBytes > 0 {
		f = append(f, "-cache", units.FormatBytes(s.cacheBytes))
	}
	if s.groupCommit {
		f = append(f, "-groupcommit")
	}
	if !s.dataMode {
		f = append(f, "-mode", "meta")
	}
	return f
}

// servePackage is what `go build` compiles into out/fragserve.
const servePackage = "repro/cmd/fragserve"

// wrapFunc lets the traced mode interpose a shim above a layer; index is
// the shard number for per-volume layers.
type wrapFunc func(layer string, index int, s blob.Store) blob.Store

// builtStack is an in-process stack with the handles the per-layer
// counters are read from.
type builtStack struct {
	top   blob.Store
	cores []blob.Store // the per-volume core stores, unwrapped
	cache *cache.Store // nil without a cache
}

// build assembles the stack in-process the way cmd/fragserve does: core
// volumes on one clock, sharded when asked, a read cache on top. wrap
// (may be nil) is applied above every layer.
func (s stackSpec) build(wrap wrapFunc) (*builtStack, error) {
	if wrap == nil {
		wrap = func(_ string, _ int, st blob.Store) blob.Store { return st }
	}
	opts := []blob.Option{blob.WithCapacity(s.capacity)}
	if s.dataMode {
		opts = append(opts, blob.WithDiskMode(disk.DataMode))
	}
	if s.groupCommit {
		opts = append(opts, blob.WithGroupCommit(groupCommitBatch, groupCommitDelay))
	}
	clock := vclock.New()
	b := &builtStack{}
	children := make([]blob.Store, max(s.shards, 1))
	for i := range children {
		var st blob.Store
		var err error
		switch s.backend {
		case "file":
			st, err = core.NewFileStore(clock, opts...)
		case "db":
			st, err = core.NewDBStore(clock, opts...)
		default:
			err = fmt.Errorf("unknown backend %q", s.backend)
		}
		if err != nil {
			return nil, err
		}
		b.cores = append(b.cores, st)
		children[i] = wrap("core", i, st)
	}
	b.top = children[0]
	if len(children) > 1 {
		sh, err := shard.New(children...)
		if err != nil {
			return nil, err
		}
		b.top = wrap("shard", 0, sh)
	}
	if s.cacheBytes > 0 {
		c, err := cache.New(b.top, cache.WithCapacity(s.cacheBytes))
		if err != nil {
			return nil, err
		}
		b.cache = c
		b.top = wrap("cache", 0, c)
	}
	return b, nil
}

func (b *builtStack) close() { blob.CloseStore(b.top) }

// meanFragments is the paper's headline: fragments per object.
func meanFragments(s frag.Source) float64 { return frag.Analyze(s).MeanFragments() }

// stackCounters are the counts the layers keep themselves, read from
// outside through their public accessors.
type stackCounters struct {
	driveRequests, driveSeeks, driveBytesWritten int64 // data drives, summed over volumes
	commits, forces                              int64 // group-commit pipeline
	cacheHits, cacheMisses, cacheEvictions       int64
	cacheResidentBytes                           int64
}

func (b *builtStack) counters() stackCounters {
	var c stackCounters
	for _, st := range b.cores {
		var d *disk.Drive
		switch st := st.(type) {
		case *core.FileStore:
			d = st.Volume().Drive()
		case *core.DBStore:
			d = st.Engine().DataDrive()
		}
		ds := d.Stats()
		c.driveRequests += ds.Reads + ds.Writes
		c.driveSeeks += ds.Seeks
		c.driveBytesWritten += ds.BytesWritten
	}
	if cs, ok := blob.CommitStatsOf(b.top); ok {
		c.commits, c.forces = cs.Commits, cs.Batches
	}
	if b.cache != nil {
		cs := b.cache.CacheStats()
		c.cacheHits, c.cacheMisses, c.cacheEvictions, c.cacheResidentBytes = cs.Hits, cs.Misses, cs.Evictions, cs.ResidentBytes
	}
	return c
}

// plus adds two sets of counts; the resident level is the later one's.
func (c stackCounters) plus(o stackCounters) stackCounters {
	o.driveRequests += c.driveRequests
	o.driveSeeks += c.driveSeeks
	o.driveBytesWritten += c.driveBytesWritten
	o.commits += c.commits
	o.forces += c.forces
	o.cacheHits += c.cacheHits
	o.cacheMisses += c.cacheMisses
	o.cacheEvictions += c.cacheEvictions
	return o
}

// since returns the counts accumulated after base was taken; the cache's
// resident bytes are a level, not a count, and stay as they are.
func (c stackCounters) since(base stackCounters) stackCounters {
	c.driveRequests -= base.driveRequests
	c.driveSeeks -= base.driveSeeks
	c.driveBytesWritten -= base.driveBytesWritten
	c.commits -= base.commits
	c.forces -= base.forces
	c.cacheHits -= base.cacheHits
	c.cacheMisses -= base.cacheMisses
	c.cacheEvictions -= base.cacheEvictions
	return c
}

// newExecutor is the simulator's driver over a store.
func newExecutor(s blob.Store) *workload.Executor { return workload.NewExecutor(s) }

// newServer mounts the service over a store with fragserve's defaults.
// The caller closes it.
func newServer(s blob.Store) (*server.Server, error) {
	return server.New(s, server.Config{
		MaxInFlight:    server.DefaultMaxInFlight,
		MaxQueue:       2 * server.DefaultMaxInFlight,
		QueueTimeout:   time.Second,
		RequestTimeout: 30 * time.Second,
	})
}

// dial opens one client connection to a served stack.
func dial(baseURL string) (*client.Store, error) { return client.Dial(baseURL) }

// obsWrap is the obs rung's subject: the observability wrapper with
// recording off (nil registry) or on.
func obsWrap(s blob.Store, enabled bool) blob.Store {
	var reg *obs.Registry
	if enabled {
		reg = obs.NewRegistry()
	}
	return obs.Wrap(s, "core", reg)
}

// The raw net/http floor speaks the wire protocol without client.Store.
const (
	blobPath        = wire.PathBlobs
	headerMetaBytes = wire.HeaderMetaBytes
)

package stack_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestMain fails the package if a test leaves a goroutine running; a
// built stack starts none.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestConformanceMatrix runs the blob.Store contract suite over every
// shape Build composes: each base fleet with and without group commit,
// a read cache (smaller than the suite's working sets, so evictions
// happen) and an obs layer recording into a registry. The suite's own
// per-test options (capacity, disk mode) ride in Spec.Options.
func TestConformanceMatrix(t *testing.T) {
	bases := []stack.Spec{
		{Backends: []string{stack.File}},
		{Backends: []string{stack.DB}},
		{Backends: []string{stack.File}, Shards: 4},
		{Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4},
	}
	for _, base := range bases {
		// Bit 0 adds group commit, bit 1 the cache, bit 2 the obs layer:
		// every layer is seen alone, absent, and with the other two.
		for _, layers := range []int{0, 1, 2, 4, 7} {
			spec := base
			if layers&1 != 0 {
				spec.GroupCommitBatch, spec.GroupCommitDelay = 8, 200*time.Microsecond
			}
			if layers&2 != 0 {
				spec.CacheBytes = 8 * units.MB
			}
			if layers&4 != 0 {
				spec.ObsLayer, spec.Registry = "store", obs.NewRegistry()
			}
			t.Run(spec.String(), func(t *testing.T) {
				t.Parallel()
				conformance.Run(t, func(opts ...blob.Option) blob.Store {
					spec := spec
					spec.Options = opts
					s, err := stack.Build(vclock.New(), spec)
					if err != nil {
						panic(err)
					}
					return s
				})
			})
		}
	}
}

func TestSpecString(t *testing.T) {
	cases := []struct {
		spec stack.Spec
		want string
	}{
		{stack.Spec{Backends: []string{stack.File}, Capacity: 4 * units.GB}, "file:4G|meta"},
		{stack.Spec{Backends: []string{stack.DB}, Capacity: 512 * units.MB, Mode: disk.DataMode}, "db:512M|data"},
		{stack.Spec{Backends: []string{stack.File}, Shards: 1, Capacity: units.GB}, "file:1G*1|meta"},
		// The form bench/stack.go prints for fragserve's full stack.
		{stack.Spec{
			Backends: []string{stack.File}, Shards: 4, Capacity: 4 * units.GB, Mode: disk.DataMode,
			GroupCommitBatch: 8, GroupCommitDelay: 200 * time.Microsecond, CacheBytes: 32 * units.MB,
		}, "file:4G*4|data|gc:8,200µs|cache:32M"},
		{stack.Spec{
			Backends: []string{stack.File, stack.DB}, Shards: 2, Capacity: 64 * units.MB,
			ObsLayer: "store", Registry: obs.NewRegistry(),
		}, "file+db:64M|meta|obs:store"},
		{stack.Spec{
			Backends: []string{stack.File}, Capacity: units.GB,
			Options: []blob.Option{blob.WithWriteRequestSize(16 * units.KB), blob.WithSizeHint()},
		}, "file:1G|meta|wreq:16K|hint"},
		{stack.Spec{
			Backends: []string{stack.File}, Capacity: units.GB,
			Options: []blob.Option{blob.WithDelayedAllocation()},
		}, "file:1G|meta|delayed"},
		// A batch of 1 is synchronous commit: no pipeline to name.
		{stack.Spec{Backends: []string{stack.DB}, Capacity: units.GB, GroupCommitBatch: 1, GroupCommitDelay: time.Millisecond}, "db:1G|meta"},
	}
	for _, tc := range cases {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestBuildLayers pins the composition order from the outside: the
// store's name nests cache(sharded-n(backends)), and each layer is
// reachable through blob.As.
func TestBuildLayers(t *testing.T) {
	s, err := stack.Build(vclock.New(), stack.Spec{
		Backends: []string{stack.File, stack.DB}, Shards: 2, Capacity: 64 * units.MB,
		ObsLayer: "store", Registry: obs.NewRegistry(), CacheBytes: units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Name(), "cache(sharded-2(database+filesystem))"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if got, want := s.CapacityBytes(), 2*64*units.MB; got > want || got < want*9/10 {
		t.Fatalf("CapacityBytes() = %d, want about %d (capacity is per volume)", got, want)
	}
	fleet, ok := blob.As[*shard.Store](s)
	if _, isCache := s.(*cache.Store); !isCache || !ok || fleet.NumShards() != 2 {
		t.Fatalf("want a cache over a 2-shard fleet, got %T (fleet found: %v)", s, ok)
	}
	for i, engine := range []string{"filesystem", "database"} {
		volume := fleet.Shard(i)
		if _, isObs := volume.(*obs.Store); !isObs || volume.Name() != engine {
			t.Fatalf("shard %d is %T %q, want an obs layer over the %s engine", i, volume, volume.Name(), engine)
		}
	}
	if _, ok := blob.As[*core.DBStore](fleet.Shard(1)); !ok {
		t.Fatal("the engine under shard 1's obs layer is not reachable through blob.As")
	}
	single, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{stack.DB}, Capacity: 64 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Name(); got != "database" {
		t.Fatalf("single volume Name() = %q, want no layer above the engine", got)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	ok := stack.Spec{Backends: []string{stack.File}, Capacity: 64 * units.MB}
	cases := map[string]func(*stack.Spec){
		"unknown backend":    func(s *stack.Spec) { s.Backends = []string{"filesystem"} },
		"no backend":         func(s *stack.Spec) { s.Backends = nil },
		"negative shards":    func(s *stack.Spec) { s.Shards = -1 },
		"backends != shards": func(s *stack.Spec) { s.Backends, s.Shards = []string{stack.File, stack.DB}, 3 },
		"negative cache":     func(s *stack.Spec) { s.CacheBytes = -1 },
		"missing capacity":   func(s *stack.Spec) { s.Capacity = 0 },
		"negative gc batch":  func(s *stack.Spec) { s.GroupCommitBatch = -1 },
	}
	for name, breakIt := range cases {
		spec := ok
		breakIt(&spec)
		if s, err := stack.Build(vclock.New(), spec); !errors.Is(err, blob.ErrBadOption) {
			t.Errorf("%s: Build = (%v, %v), want blob.ErrBadOption", name, s, err)
		}
	}
	if _, err := stack.Build(vclock.New(), ok); err != nil {
		t.Fatalf("the unbroken spec must build: %v", err)
	}
}

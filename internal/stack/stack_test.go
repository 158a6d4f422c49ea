package stack_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestMain fails the package if a test leaves a goroutine running; a
// built stack starts none, and every served row's server and client
// are shut down by the test that built them.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// row is one stack shape the store contract is pinned over: a Spec, and
// what goes on top of the built stack — nothing, an obs layer, or the
// network hop.
type row struct {
	name string
	spec stack.Spec
	top  func(t *testing.T, s blob.Store) blob.Store
}

// factory builds row r's stacks for one test; the contract's options
// (capacity, disk mode) ride in Spec.Options ahead of the row's own.
func (r row) factory(t *testing.T) conformance.Factory {
	return func(opts ...blob.Option) blob.Store {
		spec := r.spec
		spec.Options = append(append([]blob.Option(nil), opts...), r.spec.Options...)
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			panic(err)
		}
		if r.top != nil {
			s = r.top(t, s)
		}
		return s
	}
}

// rows is every stack the contract runs over, each once.
func rows() []row {
	var out []row
	add := func(spec stack.Spec, suffix string, top func(*testing.T, blob.Store) blob.Store) {
		out = append(out, row{spec.String() + suffix, spec, top})
	}
	file, db, mixed4 := []string{stack.File}, []string{stack.DB}, []string{stack.File, stack.DB, stack.File, stack.DB}
	gc := func(s stack.Spec) stack.Spec {
		s.GroupCommitBatch, s.GroupCommitDelay = 8, 200*time.Microsecond
		return s
	}
	// Each base fleet with every layer Build adds seen alone, absent and
	// with the other two: bit 0 is group commit, bit 1 a cache smaller
	// than the working sets, bit 2 an obs layer per volume.
	for _, base := range []stack.Spec{{Backends: file}, {Backends: db}, {Backends: file, Shards: 4}, {Backends: mixed4, Shards: 4}} {
		for _, layers := range []int{0, 1, 2, 4, 7} {
			spec := base
			if layers&1 != 0 {
				spec = gc(spec)
			}
			if layers&2 != 0 {
				spec.CacheBytes = 8 * units.MB
			}
			if layers&4 != 0 {
				spec.Obs = obs.NewRegistry()
			}
			add(spec, "", nil)
		}
	}
	// Fleets of one and of sixteen; a mixed fleet of one is a file one.
	mixed16 := slices.Repeat([]string{stack.File, stack.DB}, 8)
	for _, fleet := range []stack.Spec{{Backends: file, Shards: 1}, {Backends: db, Shards: 1},
		{Backends: file, Shards: 16}, {Backends: db, Shards: 16}, {Backends: mixed16, Shards: 16}} {
		add(fleet, "", nil)
	}
	// Cache budgets from one small object to more than the store holds.
	for _, budget := range []int64{64 * units.KB, 2 * units.MB, units.GB} {
		add(stack.Spec{Backends: file, CacheBytes: budget}, "", nil)
	}
	// An obs layer above the shard fan-out, the one place Build puts
	// none: recording, disabled, and watching a group-commit pipeline;
	// then one above a volume that has its own.
	fleet := stack.Spec{Backends: mixed4, Shards: 4}
	wrap := func(layer string, reg *obs.Registry) func(*testing.T, blob.Store) blob.Store {
		return func(_ *testing.T, s blob.Store) blob.Store { return obs.Wrap(s, layer, reg) }
	}
	add(fleet, "|obs-top", wrap("store", obs.NewRegistry()))
	add(fleet, "|obs-top:nil", wrap("store", nil))
	reg := obs.NewRegistry()
	observed := gc(fleet)
	observed.Options = []blob.Option{blob.WithCommitObserver(obs.NewCommitObserver(reg, "store"))}
	add(observed, "|obs-top:observer", wrap("store", reg))
	reg = obs.NewRegistry()
	add(stack.Spec{Backends: file, Obs: reg}, "|obs-top", wrap("top", reg))
	// The network hop: a client of fragserve's front door on loopback.
	for _, spec := range []stack.Spec{{Backends: file}, {Backends: db}, {Backends: mixed4, Shards: 4}} {
		add(spec, "|client", served)
	}
	return out
}

// served serves s through server.Serve on a loopback listener and
// returns a client of it; t's cleanup closes both.
func served(t *testing.T, s blob.Store) blob.Store {
	srv, err := server.New(s, server.Config{})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := client.Dial("http://" + ln.Addr().String())
	if err != nil {
		panic(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Shutdown(context.Background())
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve = %v", err)
		}
	})
	return c
}

// TestConformanceMatrix runs the contract cases the model cannot
// express — contexts, deadlines, concurrency, handles across stores,
// the cost of a ranged read — over every row.
func TestConformanceMatrix(t *testing.T) {
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			conformance.Run(t, r.factory(t))
		})
	}
}

// TestStoreOps runs the same seeded op sequences on every row, each
// checked against conformance.Model.
func TestStoreOps(t *testing.T) {
	const sequences = 200
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for seed := range uint64(sequences) {
				ops := randomOps(seed)
				t.Run(fmt.Sprint(seed), func(t *testing.T) { conformance.RunOps(t, r.factory(t), ops) })
			}
		})
	}
}

// FuzzStoreOps runs each input on every row. Its seed corpus holds one
// sequence for each hand-written case the model replaced.
func FuzzStoreOps(f *testing.F) {
	rs := rows()
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, r := range rs {
			t.Run(r.name, func(t *testing.T) { conformance.RunOps(t, r.factory(t), ops) })
		}
	})
}

// TestServedAgeMatchesInProcess replays one seeded op list — creates,
// replaces and deletes at k=1 — on a 4-shard stack in process and on
// the same stack through the network hop, where the client reads
// RetiredBytes and LiveBytes from /v1/stats. Both runs must end with
// the retired and live bytes the list implies and the same storage age.
func TestServedAgeMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	var ops []trace.Op
	live := map[string]bool{}
	for range 400 {
		op := workload.Op{Key: fmt.Sprintf("k%02d", rng.IntN(32)), Size: (1 + rng.Int64N(128)) * 4 * units.KB}
		switch {
		case !live[op.Key]:
			op.Kind, live[op.Key] = workload.OpCreate, true
		case rng.IntN(4) == 0:
			op.Kind, op.Size, live[op.Key] = workload.OpDelete, 0, false
		default:
			op.Kind = workload.OpReplace
		}
		ops = append(ops, trace.Op{Op: op})
	}
	want, err := trace.Analyze(ops)
	if err != nil || want.RetiredBytes == 0 {
		t.Fatalf("Analyze = %+v, %v", want, err)
	}
	spec := stack.Spec{Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4, Capacity: 32 * units.MB}
	for i, top := range []func(*testing.T, blob.Store) blob.Store{nil, served} {
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if top != nil {
			s = top(t, s)
		}
		how := [...]string{"in process", "served"}[i]
		res, err := trace.Replay(context.Background(), s, trace.OpsSources(ops)...)
		if err != nil {
			t.Fatal(err)
		}
		if s.RetiredBytes() != want.RetiredBytes || s.LiveBytes() != want.LiveBytes ||
			res.StorageAge != want.StorageAge || core.NewAgeTracker(s).Age() != want.StorageAge {
			t.Fatalf("%s: retired %d, live %d, age %g (replay said %g); the op list implies %d, %d, %g",
				how, s.RetiredBytes(), s.LiveBytes(), core.NewAgeTracker(s).Age(), res.StorageAge,
				want.RetiredBytes, want.LiveBytes, want.StorageAge)
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
			Obs: obs.NewRegistry(),
		}, "file+db:64M|meta|obs"},
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
		Obs: obs.NewRegistry(), CacheBytes: units.MB,
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

// randomOps draws a sequence for conformance.RunOps from seed, in the
// encoding RunOps documents. Uniform bytes seldom finish a write, so it
// draws scripts: a write to a slot that mostly appends the rest of its
// stream, commits and releases the slot; a read that mostly opens the
// key written last; or a single op, such as a read through a slot
// opened long ago.
func randomOps(seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	any := func() byte { return byte(rng.Uint32()) }
	pick := func(b ...byte) byte { return b[rng.IntN(len(b))] }
	var out []byte
	var key byte
	for range conformance.MaxOps {
		slot := any()
		switch p := rng.IntN(100); {
		case p < 40: // a write: rest, or half then rest, data or nil; or a bad append
			key = any()
			out = append(out, any()%2, key, any(), slot)
			mode := pick(0, 4)
			for _, kind := range [][]byte{{0}, {0}, {1, 0}, {1, 4}, {2}, {3}, {8}, {0, 4}}[rng.IntN(8)] {
				out = append(out, 2, slot, kind^mode)
			}
			out = append(out, pick(3, 3, 3, 4, 5), slot, pick(4, 4, 6), slot)
		case p < 45: // two 130 or 300 KB writes taking turns, so the first one
			// fragments, then a CompactObject of it between two Stats
			key = any()
			other := any()
			out = append(out, 1, key, pick(5, 6), slot, 1, any(), pick(5, 6), other,
				2, slot, 1, 2, other, 1, 2, slot, 0, 2, other, 0, 3, slot, 3, other,
				6, key, 12, key, 6, key)
		case p < 70: // a read: Open, then ReadAll or ReadAt, then maybe Close
			out = append(out, 7, pick(key, key, any()), slot)
			for range 1 + rng.IntN(3) {
				out = append(out, pick(8, 9, 9), slot, any(), any())
			}
			out = append(out, pick(10, 6), slot)
		case p < 78: // a later read through any slot, often of a dead version
			out = append(out, pick(8, 9, 9), any(), any(), any())
		case p < 85:
			out = append(out, 5, pick(key, any())) // Delete
		case p < 92:
			out = append(out, 6, any()) // Stat
		case p < 96: // an oversized write or a CompactObject (two opcodes)
			out = append(out, 11+any()%3, any())
		default: // a compactor pass or Recover
			out = append(out, 14+any()%2)
		}
	}
	return out
}

// Package shard composes N child blob.Stores — filesystem- or
// database-backed, homogeneous or mixed — into one sharded Store, the
// multi-volume regime production blob services scale in. Keys route to
// children with rendezvous (highest-random-weight) hashing, so growing
// or shrinking the shard set moves only ~1/N of the keyspace instead of
// reshuffling every object, and each child keeps its own simulated
// drives, allocator, and engine mutex: operations on keys owned by
// different shards genuinely proceed in parallel.
//
// The paper's Figure 6 makes shard count a first-order performance
// variable: fragmentation is governed by the size of the free pool a
// writer allocates from, and splitting one volume into N shards divides
// that free pool by N. The aggregated Snapshot and the harness's "shard"
// experiment measure exactly that trade.
//
// When children are built with blob.WithGroupCommit, each shard has its
// own committer: concurrent writers whose keys route to different shards
// form batches — and issue group forces — on every shard in parallel.
// CommitStats aggregates the fleet's amortization.
//
// Every failure surfaces the shared sentinel vocabulary of package blob
// unchanged — children already speak it, and the shard layer adds no
// dialect of its own beyond its construction-time sentinels.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/vclock"
)

// Construction-time sentinels. Operational failures (not found, no
// space, busy, ...) always wrap the blob package's vocabulary instead.
var (
	// ErrNoShards reports a New call with zero child stores.
	ErrNoShards = errors.New("shard: at least one child store is required")

	// ErrNilShard reports a nil child store passed to New.
	ErrNilShard = errors.New("shard: nil child store")

	// ErrClockMismatch reports child stores that do not share one
	// virtual clock; aggregate virtual-time accounting would be
	// meaningless across independent clocks.
	ErrClockMismatch = errors.New("shard: child stores must share one virtual clock")
)

// Store implements blob.Store over N child stores. It is safe for
// concurrent use when its children are: every call goes straight to
// the child that owns the key, and each child orders same-key calls
// under its own engine mutex. The router keeps no per-key state; a
// shard's retired bytes are counted by the child itself.
type Store struct {
	children []blob.Store
	ids      []string // stable rendezvous identities, "shard-<i>"
	clock    *vclock.Clock
	name     string
}

// New composes children into one sharded store. All children must share
// one virtual clock (build them with the same *vclock.Clock) so
// aggregate timing is coherent; violations fail with ErrClockMismatch.
func New(children ...blob.Store) (*Store, error) {
	if len(children) == 0 {
		return nil, ErrNoShards
	}
	ids := make([]string, len(children))
	backends := make(map[string]bool)
	for i, c := range children {
		if c == nil {
			return nil, fmt.Errorf("%w: index %d", ErrNilShard, i)
		}
		if c.Clock() != children[0].Clock() {
			return nil, fmt.Errorf("%w: shard %d", ErrClockMismatch, i)
		}
		ids[i] = fmt.Sprintf("shard-%d", i)
		backends[c.Name()] = true
	}
	kinds := make([]string, 0, len(backends))
	for k := range backends {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return &Store{
		children: children,
		ids:      ids,
		clock:    children[0].Clock(),
		name:     fmt.Sprintf("sharded-%d(%s)", len(children), strings.Join(kinds, "+")),
	}, nil
}

// Name implements blob.Store, e.g. "sharded-4(filesystem)" or
// "sharded-8(database+filesystem)" for mixed fleets.
func (s *Store) Name() string { return s.name }

// Clock implements blob.Store: the single virtual clock every shard
// charges.
func (s *Store) Clock() *vclock.Clock { return s.clock }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.children) }

// Shard returns child i, for per-shard analysis tools.
func (s *Store) Shard(i int) blob.Store { return s.children[i] }

// ShardFor returns the index of the shard that owns key under the
// current shard set — rendezvous hashing: the shard whose (id, key)
// hash scores highest. Removing one shard reroutes only that shard's
// keys; adding one steals ~1/(N+1) of each existing shard's keys.
func (s *Store) ShardFor(key string) int {
	best := 0
	var bestScore uint64
	for i, id := range s.ids {
		score := hrwScore(id, key)
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// hrwScore is the rendezvous weight of key on the shard named id:
// 64-bit FNV-1a over the id, a separator, and the key, passed through a
// splitmix64-style finalizer. The finalizer matters: raw FNV-1a scores
// of strings differing in one early byte are correlated enough to skew
// the max-selection badly.
func hrwScore(id, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= 0xff // separator: "a"+"bc" and "ab"+"c" must not collide
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// owner returns the child that owns key.
func (s *Store) owner(key string) blob.Store { return s.children[s.ShardFor(key)] }

// Open implements blob.Store.
func (s *Store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.owner(key).Open(ctx, key)
}

// Create implements blob.Store: the stream lands whole on the owning
// shard (an object never spans shards, so a shard failure can never
// leave a torn object).
func (s *Store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.owner(key).Create(ctx, key, size)
}

// Replace implements blob.Store: a safe replace on the owning shard.
func (s *Store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.owner(key).Replace(ctx, key, size)
}

// Delete implements blob.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.owner(key).Delete(ctx, key)
}

// Stat implements blob.Store.
func (s *Store) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := ctx.Err(); err != nil {
		return blob.Info{}, err
	}
	return s.owner(key).Stat(ctx, key)
}

// Keys implements blob.Store: the union of every shard's live keys, in
// unspecified order.
func (s *Store) Keys() []string {
	var out []string
	for _, c := range s.children {
		out = append(out, c.Keys()...)
	}
	return out
}

// ObjectCount implements blob.Store.
func (s *Store) ObjectCount() int {
	n := 0
	for _, c := range s.children {
		n += c.ObjectCount()
	}
	return n
}

// LiveBytes implements blob.Store.
func (s *Store) LiveBytes() int64 {
	var n int64
	for _, c := range s.children {
		n += c.LiveBytes()
	}
	return n
}

// RetiredBytes implements blob.Store.
func (s *Store) RetiredBytes() int64 {
	var n int64
	for _, c := range s.children {
		n += c.RetiredBytes()
	}
	return n
}

// FreeBytes implements blob.Store. Note the aggregate overstates what
// one writer can use: a single object must fit inside one shard's free
// pool, which is the per-shard fragmentation effect the harness's
// "shard" experiment measures.
func (s *Store) FreeBytes() int64 {
	var n int64
	for _, c := range s.children {
		n += c.FreeBytes()
	}
	return n
}

// CapacityBytes implements blob.Store.
func (s *Store) CapacityBytes() int64 {
	var n int64
	for _, c := range s.children {
		n += c.CapacityBytes()
	}
	return n
}

// EachObjectRuns implements frag.Source across every shard. Cluster
// addresses are shard-local (each shard is its own drive), which is fine
// for fragment counting: runs never span shards.
func (s *Store) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	for _, c := range s.children {
		c.EachObjectRuns(fn)
	}
}

// EachObjectTag implements frag.TagSource across every shard.
func (s *Store) EachObjectTag(fn func(key string, tag uint32)) {
	for _, c := range s.children {
		c.EachObjectTag(fn)
	}
}

// CommitStats aggregates the group-commit pipeline counters across every
// child that exposes them. Each shard has its own committer, so under
// concurrent writers batches form — and group forces issue — on every
// shard in parallel; the aggregate MeanBatch is the fleet-wide
// amortization factor.
func (s *Store) CommitStats() blob.CommitStats {
	var out blob.CommitStats
	for _, c := range s.children {
		if st, ok := blob.CommitStatsOf(c); ok {
			out.Commits += st.Commits
			out.Batches += st.Batches
			if st.MaxBatch > out.MaxBatch {
				out.MaxBatch = st.MaxBatch
			}
		}
	}
	return out
}

var _ blob.Store = (*Store)(nil)

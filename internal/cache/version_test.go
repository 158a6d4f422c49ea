package cache_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// filled returns n bytes of b.
func filled(b byte, n int64) []byte { return bytes.Repeat([]byte{b}, int(n)) }

// TestCompactionInvalidatesPinnedHitReader is the ABA regression test:
// a reader pinned to a cache hit must observe a compactor rewrite of
// its object. The cache has no rewrite method of its own: blob.As
// reaches the store's Rewriter beneath it, and the hit reader, which
// never reads the store, learns of the relocation from its liveness
// Stat.
func TestCompactionInvalidatesPinnedHitReader(t *testing.T) {
	ctx := context.Background()
	c := newCachedFS(t, 64*units.MB)
	data := make([]byte, units.MB)
	for i := range data {
		data[i] = byte(i % 127)
	}
	if err := blob.Put(ctx, c, "a", int64(len(data)), data); err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then fragment the object so compaction will move it.
	if _, _, err := blob.Get(ctx, c, "a"); err != nil {
		t.Fatal(err)
	}
	c.Inner().(*core.FileStore).Volume().ShatterFiles(4)

	// Pin a reader across the compaction. It is served from memory — the
	// store never sees its reads — which is exactly the ABA window.
	r, err := c.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadAt(0, units.KB); err != nil {
		t.Fatal(err)
	}

	rw, ok := blob.As[blob.Rewriter](c)
	if !ok {
		t.Fatal("blob.As found no Rewriter beneath the cache")
	}
	n, err := rw.CompactObject(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("compaction moved %d bytes, want %d", n, len(data))
	}

	if _, err := r.ReadAt(0, units.KB); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("pinned hit reader survived relocation: err = %v, want ErrNotFound", err)
	}
	// A fresh read sees the relocated object, byte for byte.
	if _, got, err := blob.Get(ctx, c, "a"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-compaction read: %v", err)
	}
}

// TestWritesBeneathTheCacheServeNoDeadVersion: a replace, a delete or a
// relocation issued on the store beneath the cache, never seen by it,
// still ends a reader pinned to the version that died, and a fresh get
// sees only what the store now holds.
func TestWritesBeneathTheCacheServeNoDeadVersion(t *testing.T) {
	ctx := context.Background()
	const size = units.MB
	old, fresh := filled(0xAA, size), filled(0x55, size)
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, inner *core.FileStore) error
		want  []byte // what a fresh get returns; nil: ErrNotFound
	}{
		{"Replace", func(t *testing.T, inner *core.FileStore) error {
			return blob.Replace(ctx, inner, "a", size, fresh)
		}, fresh},
		{"Delete", func(t *testing.T, inner *core.FileStore) error {
			return inner.Delete(ctx, "a")
		}, nil},
		{"CompactObject", func(t *testing.T, inner *core.FileStore) error {
			inner.Volume().ShatterFiles(4)
			n, err := inner.CompactObject(ctx, "a")
			if err == nil && n != size {
				t.Fatalf("compaction moved %d bytes, want %d", n, size)
			}
			return err
		}, old},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCachedFS(t, 64*units.MB)
			if err := blob.Put(ctx, c, "a", size, old); err != nil {
				t.Fatal(err)
			}
			if _, _, err := blob.Get(ctx, c, "a"); err != nil { // fills the cache
				t.Fatal(err)
			}
			pinned, err := c.Open(ctx, "a")
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Close()
			if got, err := pinned.ReadAll(); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("pinned read before the write: %v", err)
			}

			if err := tc.write(t, c.Inner().(*core.FileStore)); err != nil {
				t.Fatal(err)
			}
			if got, err := pinned.ReadAll(); !errors.Is(err, blob.ErrNotFound) {
				t.Errorf("pinned ReadAll = %d bytes, %v; want ErrNotFound", len(got), err)
			}
			if _, err := pinned.ReadAt(0, units.KB); !errors.Is(err, blob.ErrNotFound) {
				t.Errorf("pinned ReadAt = %v, want ErrNotFound", err)
			}
			_, got, err := blob.Get(ctx, c, "a")
			if tc.want == nil {
				if !errors.Is(err, blob.ErrNotFound) {
					t.Errorf("get after delete = %d bytes, %v; want ErrNotFound", len(got), err)
				}
				return
			}
			if err != nil || !bytes.Equal(got, tc.want) {
				t.Errorf("get after the write: %v, dead version's bytes %v", err, bytes.Equal(got, old) && !bytes.Equal(old, tc.want))
			}
		})
	}
}

// replaceOnOpen is a store whose next Open of key first replaces it
// with next on the store beneath: a commit landing between the cache's
// first Stat and its inner Open.
type replaceOnOpen struct {
	blob.Store
	key  string
	next []byte
}

func (s *replaceOnOpen) Open(ctx context.Context, key string) (blob.Reader, error) {
	if next := s.next; key == s.key && next != nil {
		s.next = nil
		if err := blob.Replace(ctx, s.Store, key, int64(len(next)), next); err != nil {
			return nil, err
		}
	}
	return s.Store.Open(ctx, key)
}

// TestOpenRacingACommitReadsItsVersion: a reader whose inner Open lands
// on a newer version than the Stat before it reads that version whole
// and keeps nothing, since the two Stats disagree on which version its
// bytes are; a later read fills at the live version.
func TestOpenRacingACommitReadsItsVersion(t *testing.T) {
	ctx := context.Background()
	const size = 256 * units.KB
	fs, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	inner := &replaceOnOpen{Store: fs}
	c, err := cache.New(inner, cache.WithCapacity(8*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := filled(0xAA, size), filled(0x55, size)
	if err := blob.Put(ctx, c, "a", size, old); err != nil {
		t.Fatal(err)
	}

	inner.key, inner.next = "a", fresh
	r, err := c.Open(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("ReadAll = %v, old bytes %v; want the replacement's bytes",
			err, err == nil && bytes.Equal(got, old))
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 1 || st.ResidentBytes != 0 {
		t.Fatalf("stats = %+v, want 1 miss and nothing resident", st)
	}

	for i := 0; i < 2; i++ { // a miss that fills, then a hit
		if _, got, err := blob.Get(ctx, c, "a"); err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("get %d = %v; want the replacement's bytes", i, err)
		}
	}
	if st := c.CacheStats(); st.Hits != 1 || st.Misses != 2 || st.ResidentBytes != size {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses and the object resident", st)
	}
}

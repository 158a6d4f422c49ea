package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
)

// ageOp is one step of a differential sequence.
type ageOp struct {
	kind string // put, replace, delete
	key  string
	size int64
}

// ageOps is the write surface the differential test drives on the
// store and on the reference.
type ageOps interface {
	Put(ctx context.Context, key string, size int64, data []byte) error
	Replace(ctx context.Context, key string, size int64, data []byte) error
	Delete(ctx context.Context, key string) error
}

// storeOps writes straight to a store as workload.Executor does: a
// replace or a delete first makes the application's metadata lookup.
type storeOps struct{ s blob.Store }

func (o storeOps) Put(ctx context.Context, key string, size int64, data []byte) error {
	return blob.Put(ctx, o.s, key, size, data)
}

func (o storeOps) Replace(ctx context.Context, key string, size int64, data []byte) error {
	o.s.Stat(ctx, key)
	return blob.Replace(ctx, o.s, key, size, data)
}

func (o storeOps) Delete(ctx context.Context, key string) error {
	if _, err := o.s.Stat(ctx, key); err != nil {
		return err
	}
	return o.s.Delete(ctx, key)
}

func (op ageOp) apply(ctx context.Context, a ageOps) error {
	switch op.kind {
	case "put":
		return a.Put(ctx, op.key, op.size, nil)
	case "replace":
		return a.Replace(ctx, op.key, op.size, nil)
	}
	return a.Delete(ctx, op.key)
}

// TestAgeTrackerMatchesReference replays seeded op sequences straight
// into a store and through refAgeTracker, the per-key ledger the
// tracker once kept, each on its own fresh store of the same backend.
// After every op the store's RetiredBytes and LiveBytes and the
// tracker's Age must equal the reference's bit for bit, both must
// return the same error and have charged the same virtual time. The
// volume is small enough that writes are refused with ErrNoSpaceLeft,
// and every path must occur in every backend's run.
func TestAgeTrackerMatchesReference(t *testing.T) {
	const sequences, steps, capacity = 200, 60, 4 * units.MB
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	ctx := context.Background()
	for _, backend := range []struct {
		name string
		open func(t testing.TB, opts ...blob.Option) blob.Store
	}{
		{"filesystem", func(t testing.TB, o ...blob.Option) blob.Store { return mustFileStore(t, o...) }},
		{"database", func(t testing.TB, o ...blob.Option) blob.Store { return mustDBStore(t, o...) }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			paths := map[string]int{}
			for seed := int64(0); seed < sequences; seed++ {
				rng := rand.New(rand.NewSource(seed))
				open := func() blob.Store {
					return backend.open(t, blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
				}
				s, want := open(), newRefAgeTracker(open())
				tr := NewAgeTracker(s)
				live := map[string]bool{}
				for step := 0; step < steps; step++ {
					op := ageOp{key: keys[rng.Intn(len(keys))], size: (1 + rng.Int63n(16)) * 64 * units.KB}
					switch r := rng.Intn(19); {
					case r < 6:
						op.kind = "put"
					case r < 15:
						op.kind = "replace"
					default:
						op.kind = "delete"
					}
					gotErr, wantErr := op.apply(ctx, storeOps{s}), op.apply(ctx, want)
					where := fmt.Sprintf("seed %d step %d %s %s %d", seed, step, op.kind, op.key, op.size)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: store err %v, reference err %v", where, gotErr, wantErr)
					}
					paths[agePath(op, live[op.key], gotErr)]++
					if gotErr == nil {
						live[op.key] = op.kind != "delete"
					}
					if g, w := s.RetiredBytes(), want.RetiredBytes(); g != w {
						t.Fatalf("%s: retired %d, reference %d", where, g, w)
					}
					if g, w := s.LiveBytes(), want.LiveBytes(); g != w {
						t.Fatalf("%s: live %d, reference %d", where, g, w)
					}
					if g, w := tr.Age(), want.Age(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: age %v, reference %v", where, g, w)
					}
					if g, w := s.Clock().Seconds(), want.store.Clock().Seconds(); g != w {
						t.Fatalf("%s: virtual time %v, reference %v", where, g, w)
					}
				}
			}
			for _, p := range []string{"put", "put of a live key", "replace of a live key",
				"replace of an absent key", "delete of a live key", "delete of an absent key",
				"write refused for space"} {
				if paths[p] == 0 {
					t.Errorf("no sequence took the %q path (%v)", p, paths)
				}
			}
		})
	}
}

// agePath names the path one differential op took.
func agePath(op ageOp, wasLive bool, err error) string {
	switch {
	case errors.Is(err, blob.ErrNoSpaceLeft):
		return "write refused for space"
	case op.kind == "put" && wasLive:
		return "put of a live key"
	case op.kind == "put":
		return "put"
	case wasLive:
		return op.kind + " of a live key"
	}
	return op.kind + " of an absent key"
}

// TestRetiredBytesCountedWhereVersionsDie pins the core store's
// retired-byte counter on both backends: a commit retires the version
// it replaced and a delete the version it removed; a create, an
// aborted stream and a relocation retire nothing.
func TestRetiredBytesCountedWhereVersionsDie(t *testing.T) {
	ctx := context.Background()
	eachStore(t, 128*units.MB, disk.MetadataMode, func(t *testing.T, s blob.Store) {
		check := func(what string, retired int64) {
			t.Helper()
			if got := s.RetiredBytes(); got != retired {
				t.Fatalf("%s: retired %d, want %d", what, got, retired)
			}
		}
		for i := 0; i < 8; i++ {
			if err := blob.Put(ctx, s, fmt.Sprintf("o%d", i), 256*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		check("creates", 0)
		if err := blob.Replace(ctx, s, "o0", 512*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		check("replace", 256*units.KB)
		if err := s.Delete(ctx, "o1"); err != nil {
			t.Fatal(err)
		}
		check("delete", 512*units.KB)
		if err := blob.Replace(ctx, s, "fresh", 128*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		check("create by replace", 512*units.KB)
		w, err := s.Replace(ctx, "o0", units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(512*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Abort(); err != nil {
			t.Fatal(err)
		}
		check("aborted replace", 512*units.KB)

		// Fragment an object, then rewrite it into contiguous space.
		if fs, ok := s.(*FileStore); ok {
			fs.Volume().ShatterFiles(4)
		} else {
			for _, k := range []string{"o3", "o5"} {
				if err := s.Delete(ctx, k); err != nil {
					t.Fatal(err)
				}
			}
			check("deletes", 1024*units.KB)
			if err := blob.Put(ctx, s, "holes", 512*units.KB, nil); err != nil {
				t.Fatal(err)
			}
		}
		retired, live := s.RetiredBytes(), s.LiveBytes()
		moved := int64(0)
		for _, k := range s.Keys() {
			n, err := s.(blob.Rewriter).CompactObject(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			moved += n
		}
		if moved == 0 {
			t.Fatal("compaction moved nothing: the test did not fragment an object")
		}
		check("compaction", retired)
		if s.LiveBytes() != live {
			t.Fatalf("relocation moved live bytes: %d, want %d", s.LiveBytes(), live)
		}
	})
}

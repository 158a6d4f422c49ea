package client_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/vclock"
)

// BenchmarkServedOps is served_small_meta's op mix with client and
// server in one process, so one CPU profile attributes both sides: per
// iteration a replace and two whole reads of uniformly picked keys, and
// every 16th a 4 KB ranged read and a stat. meta writes no payload
// through fragserve's default stack; payload writes real 128-384 KB
// bodies through served_large_payload's (4 shards, group commit, a
// 32 MB cache). Profile with
//
//	go test -run '^$' -bench BenchmarkServedOps -cpu 1 -o /tmp/client.test -cpuprofile cpu.out -outputdir /tmp ./internal/client
func BenchmarkServedOps(b *testing.B) {
	for _, bc := range []struct {
		name    string
		spec    stack.Spec
		objects int
		lo, hi  int64
		payload bool
	}{
		{"meta", stack.Spec{Backends: []string{stack.File}, Capacity: 4 << 30, Shards: 1, Mode: disk.DataMode},
			2048, 64 << 10, 64 << 10, false},
		{"payload", stack.Spec{Backends: []string{stack.File}, Capacity: 128 << 20, Shards: 4, Mode: disk.DataMode,
			GroupCommitBatch: 8, GroupCommitDelay: 200 * time.Microsecond, CacheBytes: 32 << 20},
			128, 128 << 10, 384 << 10, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			st, err := stack.Build(vclock.New(), bc.spec)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := server.New(st, server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			c, err := client.Dial(serveOn(b, srv))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, bc.hi)
			rng.Read(buf)
			size := func() int64 { return bc.lo + rng.Int63n(bc.hi-bc.lo+1)&^4095 }
			sizes, keys := make([]int64, bc.objects), make([]string, bc.objects)
			for k := range keys {
				keys[k] = fmt.Sprintf("obj-%05d", k)
			}
			put := func(k int, replace bool) {
				sizes[k] = size()
				var data []byte
				if bc.payload {
					data = buf[:sizes[k]]
				}
				if err := c.Upload(ctx, keys[k], sizes[k], data, replace); err != nil {
					b.Fatal(err)
				}
			}
			for k := range sizes {
				put(k, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(rng.Intn(bc.objects), true)
				for range 2 {
					if _, _, err := c.Fetch(ctx, keys[rng.Intn(bc.objects)]); err != nil {
						b.Fatal(err)
					}
				}
				if i%16 == 15 {
					k := rng.Intn(bc.objects)
					if _, err := c.FetchAt(ctx, keys[k], rng.Int63n(sizes[k]/4096)*4096, 4096); err != nil {
						b.Fatal(err)
					}
					if _, err := c.Stat(ctx, keys[k]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

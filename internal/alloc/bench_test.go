package alloc

import (
	"math/rand"
	"testing"

	"repro/internal/extent"
)

// benchPolicy drives a policy through the standard churn shape.
func benchPolicy(b *testing.B, p Policy) {
	rng := rand.New(rand.NewSource(1))
	var held [][]extent.Run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(held) < 256 || rng.Intn(2) == 0 {
			runs, err := p.Alloc(int64(rng.Intn(2048) + 16))
			if err == nil {
				held = append(held, runs)
				continue
			}
		}
		if len(held) > 0 {
			j := rng.Intn(len(held))
			for _, r := range held[j] {
				p.Free(r)
			}
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		if rc, ok := p.(*RunCache); ok && i%64 == 0 {
			rc.CommitLog()
		}
	}
}

func BenchmarkFirstFit(b *testing.B) { benchPolicy(b, NewFirstFit(1<<22)) }
func BenchmarkBestFit(b *testing.B)  { benchPolicy(b, NewBestFit(1<<22)) }
func BenchmarkWorstFit(b *testing.B) { benchPolicy(b, NewWorstFit(1<<22)) }
func BenchmarkNextFit(b *testing.B)  { benchPolicy(b, NewNextFit(1<<22)) }
func BenchmarkBuddy(b *testing.B)    { benchPolicy(b, NewBuddy(1<<22)) }
func BenchmarkRunCache(b *testing.B) { benchPolicy(b, NewRunCache(1<<22, 0.35)) }

// BenchmarkTailExtension measures the sequential-append fast path.
func BenchmarkTailExtension(b *testing.B) {
	rc := NewRunCache(int64(b.N)*16+1<<20, 0)
	tail := int64(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := rc.AllocAppend(16, tail)
		if err != nil {
			b.Fatal(err)
		}
		tail = runs[len(runs)-1].End() - 1
	}
}

// BenchmarkAgedAppend times the allocator traffic of the filesystem's
// write path on a volume a third full and aged until it holds about as
// many free runs as the sim_fs_aged benchmark's volume (800–1,000): an op
// replaces an object of 256 KB–1 MB written in tail-extending 64 KB
// requests, frees the old version's runs and commits the log every 16
// replaces, as fs.Volume.FlushLog does every LogFlushOps metadata
// operations.
func BenchmarkAgedAppend(b *testing.B) {
	v := newAgedVolume(b, 4000, 15, 16)
	requests := v.requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.replace(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(v.requests-requests), "ns/request")
	b.ReportMetric(float64(v.rc.RunCount()), "free-runs")
}

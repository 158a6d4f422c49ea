package db

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

func benchDB(capacity int64) *Database {
	clock := vclock.New()
	data := disk.New(disk.DefaultGeometry(capacity), clock, disk.MetadataMode)
	logd := disk.New(disk.DefaultGeometry(256*units.MB), clock, disk.MetadataMode)
	return Open(data, logd, Config{})
}

// BenchmarkPut measures engine put cost (host time; the simulated disk
// time is tracked separately on the virtual clock).
func BenchmarkPut(b *testing.B) {
	// Slack covers the per-object fragment-tree node page and periodic
	// row pages on top of the 256KB payload.
	d := benchDB(int64(b.N)*288*units.KB + 1*units.GB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(fmt.Sprintf("o%d", i), 256*units.KB, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaceChurn measures the safe-replace path under steady churn.
func BenchmarkReplaceChurn(b *testing.B) {
	d := benchDB(1 * units.GB)
	const n = 100
	for i := 0; i < n; i++ {
		if err := d.Put(fmt.Sprintf("o%d", i), 1*units.MB, nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Replace(fmt.Sprintf("o%d", rng.Intn(n)), 1*units.MB, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetAged measures reads on a churned (fragmented) store.
func BenchmarkGetAged(b *testing.B) {
	d := benchDB(1 * units.GB)
	const n = 100
	for i := 0; i < n; i++ {
		d.Put(fmt.Sprintf("o%d", i), 1*units.MB, nil)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		d.Replace(fmt.Sprintf("o%d", rng.Intn(n)), 1*units.MB, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(fmt.Sprintf("o%d", rng.Intn(n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRequest measures the allocator's request path. The
// returned runs are the allocator's scratch, so they are copied into
// held before the next call.
func BenchmarkAllocRequest(b *testing.B) {
	a := NewAllocator(1 << 18)
	var held []PageRun
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, ok := a.AllocRequest(8)
		if !ok {
			a.FreeRuns(held)
			held = held[:0]
			continue
		}
		held = append(held, runs...)
	}
}

package workload

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// BenchmarkExecutorStreams measures the executor's raw (wall-clock)
// speed as stream count scales — the k=16 → k=256 hot-path regime of
// the raw-speed pass, and the companion to BenchmarkObsOverhead. Each
// arm bulk-loads a fresh store with k concurrent streams, then churns
// to a fixed storage age; reported metrics are wall-clock operations
// per second (the simulation's own speed, NOT virtual-time storage
// throughput) plus ns and allocs per executed op.
// Regressions here mean shared-state contention — the store mutex, the
// commit pipeline, the virtual clock — not slower simulated hardware.
func BenchmarkExecutorStreams(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var ops, nsTotal int64
			for i := 0; i < b.N; i++ {
				n, ns := runExecutorArm(b, k)
				ops += n
				nsTotal += ns
			}
			if ops > 0 {
				b.ReportMetric(float64(ops)/(float64(nsTotal)/1e9), "ops/sec")
				b.ReportMetric(float64(nsTotal)/float64(ops), "ns/op-executed")
			}
		})
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestExecutorAllocationBudget pins the k=256 arm of
// BenchmarkExecutorStreams at 5 heap allocations per executed op (about
// 2.5 measured; 10.7 before the pooled handles and scratch buffers). A
// breach means a pooled handle or scratch buffer stopped being reused on
// the hot path. The race detector makes sync.Pool drop items, so the
// count means nothing there.
func TestExecutorAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const budget = 5.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, _ := runExecutorArm(t, 256)
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("k=256: %.2f allocs per executed op over %d ops (budget %.1f)", perOp, ops, budget)
	if perOp > budget {
		t.Fatalf("k=256: %.2f allocs per executed op, budget %.1f", perOp, budget)
	}
}

// runExecutorArm runs one load+churn cycle with k streams and returns
// the executed op count and the wall nanoseconds the phases took.
func runExecutorArm(b testing.TB, k int) (ops int64, wallNs int64) {
	b.Helper()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(1*units.GB),
		blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(max(2, k), 0))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(store, Constant{Size: 32 * units.KB}, 1).WithStreams(k)

	start := time.Now()
	load, err := r.BulkLoad(0.4)
	if err != nil {
		b.Fatal(err)
	}
	churn, err := r.ChurnToAge(3, ChurnOptions{TolerateNoSpace: true, ReadsPerWrite: 1})
	if err != nil {
		b.Fatal(err)
	}
	return int64(load.Ops) + int64(churn.Ops), time.Since(start).Nanoseconds()
}

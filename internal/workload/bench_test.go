package workload

import (
	"fmt"
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
// the raw-speed pass, and the companion to BenchmarkObsOverhead in the
// CI bench smoke. Each arm bulk-loads a fresh store with k concurrent
// streams, then churns to a fixed storage age; reported metrics are
// wall-clock operations per second (the simulation's own speed, NOT
// virtual-time storage throughput) plus ns and allocs per executed op.
// Regressions here mean shared-state contention — the age tracker, the
// commit pipeline, the striped locks, the virtual clock — not slower
// simulated hardware.
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

// runExecutorArm runs one load+churn cycle with k streams and returns
// the executed op count and the wall nanoseconds the phases took.
func runExecutorArm(b *testing.B, k int) (ops int64, wallNs int64) {
	b.Helper()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(1*units.GB),
		blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(max(2, k), 0))
	if err != nil {
		b.Fatal(err)
	}
	defer blob.CloseStore(store)
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

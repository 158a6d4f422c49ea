package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentRecording hammers one registry from k=16 recording
// streams while a reader snapshots mid-flight — the exact shape the
// interleave experiment runs under, exercised under -race in CI. Each
// stream also records into a private histogram; afterwards the merge
// of the per-stream snapshots must equal the shared histogram exactly,
// proving concurrent recording loses and duplicates nothing.
func TestConcurrentRecording(t *testing.T) {
	const (
		streams = 16
		perOp   = 5000
	)
	reg := NewRegistry()
	shared := reg.Histogram("op.read")
	private := make([]*Histogram, streams)
	for i := range private {
		private[i] = NewHistogram()
	}

	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for j := 0; j < perOp; j++ {
				v := rng.Int63n(1e7)
				shared.Observe(v)
				private[id].Observe(v)
				reg.Counter("ops").Inc()
				reg.Gauge("last").Set(float64(v))
			}
		}(i)
	}
	// Concurrent snapshots must be internally sane (no torn counts
	// below zero, quantiles within [0, max possible]) — they race with
	// recording by design.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := reg.Snapshot()
			h := s.Histograms["op.read"]
			if h.Count < 0 || h.Count > streams*perOp {
				t.Errorf("torn count %d", h.Count)
				return
			}
			if q := h.Quantile(0.99); q < 0 {
				t.Errorf("negative quantile %d", q)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if n := reg.Counter("ops").Value(); n != streams*perOp {
		t.Fatalf("counter = %d, want %d", n, streams*perOp)
	}
	want := shared.Snapshot()
	if want.Count != streams*perOp {
		t.Fatalf("shared count = %d", want.Count)
	}
	merged := &HistogramSnapshot{}
	for _, h := range private {
		merged.Merge(h.Snapshot())
	}
	if merged.Count != want.Count || merged.Sum != want.Sum ||
		merged.Zero != want.Zero || merged.Min != want.Min || merged.Max != want.Max {
		t.Fatalf("merged header != shared: %+v vs %+v", merged, want)
	}
	for b := range want.Buckets {
		if merged.Buckets[b] != want.Buckets[b] {
			t.Fatalf("bucket %d: merged %d, shared %d", b, merged.Buckets[b], want.Buckets[b])
		}
	}
}

// TestConcurrentRegistryCreation races handle creation on the same
// names: every goroutine must get the same handle back.
func TestConcurrentRegistryCreation(t *testing.T) {
	reg := NewRegistry()
	const n = 32
	counters := make([]*Counter, n)
	hists := make([]*Histogram, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			counters[id] = reg.Counter("shared.counter")
			hists[id] = reg.Histogram("shared.hist")
			counters[id].Inc()
			hists[id].Observe(1)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if counters[i] != counters[0] || hists[i] != hists[0] {
			t.Fatal("racing creation returned different handles")
		}
	}
	if counters[0].Value() != n || hists[0].Count() != n {
		t.Fatalf("lost updates: %d / %d", counters[0].Value(), hists[0].Count())
	}
}

// TestGaugeSetMaxConcurrent: a high-water mark raised from several
// goroutines at once ends at the largest value any of them offered,
// whatever order their compare-and-swaps land in.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	const writers, perWriter = 8, 1000
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				g.SetMax(float64(i*writers + w))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), float64(writers*perWriter-1); got != want {
		t.Fatalf("peak = %g, want %g", got, want)
	}
}

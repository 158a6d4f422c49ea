package harness

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/blob"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TraceReplaySweep extends the §6 interleaving measurement from
// synthetic churn to recorded operation logs: record one single-writer
// churn run as a trace (or load one from Config.TracePath), partition
// it into k replay streams (per-key hash routing, so every object's
// put/replace/get order survives), and replay each partitioning
// against a fresh store through the shared workload.Executor with group
// commit enabled — the same engine and commit pipeline the synthetic
// "interleave" sweep drives.
//
// The k=1 arm replays the log in its recorded order and must land
// exactly on the synthetic single-writer baseline (at default scale:
// db 6.70, fs 1.60 fragments/object at 4 GB / age 5); the k>1 arms
// show what stream interleaving does to the SAME operation log, the
// comparison the paper's §6 calls for on real traces.
func TraceReplaySweep(c Config) ([]*stats.Table, error) {
	counts := c.streamCounts()
	dist := c.sizeDist()
	targetAge := c.MaxAge / 2

	var fileOps []trace.Op
	traceName := "recorded synthetic churn"
	if c.TracePath != "" {
		f, err := os.Open(c.TracePath)
		if err != nil {
			return nil, err
		}
		fileOps, err = trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.TracePath, err)
		}
		if len(fileOps) == 0 {
			// An op-less file must not fall through to the synthetic
			// recording path under the user's trace name.
			return nil, fmt.Errorf("%s: trace has no operations", c.TracePath)
		}
		traceName = c.TracePath
	}

	frags := stats.NewTable(
		fmt.Sprintf("Trace replay: fragmentation vs replay streams (%s, %s volume, age %.1f)",
			traceName, units.FormatBytes(c.VolumeBytes), targetAge),
		"Replay streams", "Fragments/object")
	tput := stats.NewTable("Trace replay: write throughput vs replay streams",
		"Replay streams", "MB/sec")

	for _, st := range systems {
		kind := st.kind
		fragSeries := frags.AddSeries(st.name)
		tputSeries := tput.AddSeries(st.name)

		ops := fileOps
		if ops == nil {
			// Record the single-writer churn workload through a
			// trace.Recorder; the recording store's converged
			// fragments/object is the synthetic k=1 baseline.
			var rec *trace.Recorder
			record := func(s blob.Store) blob.Store { rec = trace.NewRecorder(s); return rec }
			err := c.age(vclock.New(), c.spec(st.backend), dist, []float64{targetAge}, drive{wrap: record}, func(a arm) error {
				ops = rec.Ops()
				c.logf("tracereplay %s: recorded %d ops (synthetic baseline %.2f frags/obj)",
					kind, len(ops), meanFrags(a.store))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}

		for _, k := range counts {
			if k < 1 {
				return nil, fmt.Errorf("tracereplay: stream count %d < 1", k)
			}
			spec := c.spec(st.backend)
			spec.GroupCommitBatch, spec.GroupCommitDelay = k, 500*time.Microsecond
			// Each partitioning replays on a fresh, empty store.
			store, err := c.build(vclock.New(), spec)
			if err != nil {
				return nil, err
			}
			res, err := trace.Replay(context.Background(), store, trace.OpsSources(trace.Partition(ops, k)...)...)
			if err != nil {
				return nil, fmt.Errorf("tracereplay %s k=%d: %w", kind, k, err)
			}
			mf := meanFrags(store)
			fragSeries.Add(float64(k), mf)
			tputSeries.Add(float64(k), res.WriteMBps)
			c.logf("tracereplay %s k=%d: %.2f frags/obj, %.2f MB/s over %d ops (age %.2f)",
				kind, k, mf, res.WriteMBps, res.Ops, res.StorageAge)
		}
	}
	frags.Note("one recorded log, re-partitioned per arm: k=1 replays the recorded allocation order and must reproduce the synthetic single-writer baseline; k>1 routes each key's ops to one of k concurrent streams (per-key order preserved) — §6's interleaving driven by a real operation log. Compare with the synthetic `interleave` sweep.")
	tput.Note("replay runs through the shared workload.Executor with group commit enabled (batches up to k), like the interleave sweep")
	return []*stats.Table{frags, tput}, nil
}

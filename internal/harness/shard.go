package harness

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// shardCounts returns the sweep points 1, 2, 4 ... max (max 0 takes 16).
func shardCounts(max int) []int {
	if max <= 0 {
		max = 16
	}
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

// ShardSweep sweeps shard count at fixed total volume: the paper's
// Figure 6 finds fragmentation governed by the size of the free pool a
// writer allocates from, and splitting one volume into N shards divides
// that free pool by N — the regime every production multi-volume blob
// service operates in. Object size scales with the volume (~400 objects
// at capacity, the paper's 10 MB at its 4 GB bench scale) so the
// per-shard free pool is measured in objects, Figure 6's axis.
//
// Measured result: at simulation scale the prediction inverts — smaller
// per-shard pools recycle a single writer's same-sized objects more
// tightly, so fragments/object falls as shards multiply, exactly as this
// reproduction's own Figure 6b behaves at small volumes. The cost of
// deep sharding appears instead as refused safe writes (a nearly-full
// shard cannot hold old and new version at once) and the throughput
// lost to them; both are reported alongside fragmentation.
func ShardSweep(c Config) ([]*stats.Table, error) {
	counts := shardCounts(c.MaxShards)
	objSize := units.RoundUp(c.VolumeBytes/400, 64*units.KB)
	dist := workload.Constant{Size: objSize}
	targetAge := c.MaxAge / 2

	frags := stats.NewTable(
		fmt.Sprintf("Sharded store: fragmentation vs shard count (%s total, %s objects, age %.1f)",
			units.FormatBytes(c.VolumeBytes), units.FormatBytes(objSize), targetAge),
		"Shards", "Fragments/object")
	pool := stats.NewTable("Sharded store: per-shard free pool at fixed total volume",
		"Shards", "Free objects/shard")
	tput := stats.NewTable("Sharded store: churn write throughput vs shard count",
		"Shards", "MB/sec")
	breakdown := stats.NewTable(
		fmt.Sprintf("Sharded store: per-shard breakdown at %d filesystem shards", counts[len(counts)-1]),
		"Shard", "Fragments/object")
	perShard := breakdown.AddSeries("Fragments/object")

	for _, st := range systems {
		kind := st.kind
		fragSeries := frags.AddSeries(st.name)
		poolSeries := pool.AddSeries(st.name)
		tputSeries := tput.AddSeries(st.name)
		for _, n := range counts {
			// Every sweep point manages the same total capacity, split
			// evenly over n volumes.
			spec := c.spec(st.backend)
			spec.Shards, spec.Capacity = n, c.VolumeBytes/int64(n)
			// Rendezvous placement is uniform, not perfectly even: at high
			// shard counts an unlucky shard can fill before the aggregate
			// target is reached, and a nearly-full shard can refuse a safe
			// write mid-churn. Both are the sharded regime itself, so the
			// run tolerates them instead of failing.
			err := c.age(vclock.New(), spec, dist, []float64{targetAge}, drive{tolerant: true}, func(a arm) error {
				// n >= 1 always builds the shard layer, a fleet of one included.
				fleet, _ := blob.As[*shard.Store](a.store)
				snap := fleet.Snapshot()
				freePool := snap.Shards[0].FreePoolObjects(objSize)
				for _, si := range snap.Shards[1:] {
					freePool += si.FreePoolObjects(objSize)
				}
				freePool /= float64(len(snap.Shards))
				fragSeries.Add(float64(n), snap.MeanFragments)
				poolSeries.Add(float64(n), freePool)
				tputSeries.Add(float64(n), a.res.MBps)
				c.logf("shard %s n=%d: %.2f frags/obj, %.1f free objs/shard, %.2f MB/s (%d skipped), imbalance %.2f",
					kind, n, snap.MeanFragments, freePool, a.res.MBps, a.res.Skipped, snap.LiveImbalance)
				if kind == "filesystem" && n == counts[len(counts)-1] {
					for _, si := range snap.Shards {
						perShard.Add(float64(si.Index), si.MeanFragments)
					}
					breakdown.Note("live-byte imbalance (CV) %.2f across %d shards; %s live, %s retired in total",
						snap.LiveImbalance, len(snap.Shards),
						units.FormatBytes(snap.LiveBytes), units.FormatBytes(snap.RetiredBytes))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	frags.Note("fixed total volume: N shards divide the writer's free pool by N — Figure 6 predicts fragmentation rises as the pool shrinks, but at this scale tight pools RECYCLE a lone writer's constant-size objects and fragmentation falls instead (cf. Figure 6b's small-volume arm)")
	tput.Note("deep sharding's real cost here: nearly-full shards refuse safe writes (old+new coexist until commit), skipping ops and shaving throughput")
	pool.Note("the paper's comfort threshold is ~400 free objects; deep sharding pushes each shard far below it")
	return []*stats.Table{frags, pool, tput, breakdown}, nil
}

// Sharded store: compose several simulated volumes — even a mixed
// filesystem/database fleet — into one blob.Store that routes keys with
// rendezvous hashing, then watch the per-shard stats the aggregated
// snapshot reports. This is the multi-volume regime production blob
// services scale in, where the paper's Figure 6 makes each shard's free
// pool the variable to watch.
//
// Run with:
//
//	go run ./examples/shardedstore
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func main() {
	ctx := context.Background()

	// Four shards on one shared virtual clock (stack.Build puts every
	// volume on the clock it is given, so aggregate timing stays
	// coherent): three filesystem volumes and one database engine, 64 MB
	// each.
	built, err := stack.Build(vclock.New(), stack.Spec{
		Backends: []string{stack.File, stack.File, stack.File, stack.DB},
		Shards:   4,
		Capacity: 64 * units.MB,
		Mode:     disk.DataMode,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, _ := blob.As[*shard.Store](built) // the shard layer, for routing and snapshots
	fmt.Printf("built %s: %s total capacity across %d shards\n\n",
		store.Name(), units.FormatBytes(store.CapacityBytes()), store.NumShards())

	// Writes go through the ordinary blob.Store surface; the router
	// decides which shard owns each key. Rendezvous hashing means a
	// future fifth shard would steal only ~1/5 of these keys.
	payload := make([]byte, 512*units.KB)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("album-%02d/img-%04d.jpg", i%5, i)
		if err := blob.Put(ctx, store, key, int64(len(payload)), payload); err != nil {
			log.Fatal(err)
		}
		if i < 4 {
			fmt.Printf("%-24s -> shard %d\n", key, store.ShardFor(key))
		}
	}
	fmt.Println("...")

	// Reads and safe replaces route the same way.
	if _, data, err := blob.Get(ctx, store, "album-00/img-0000.jpg"); err != nil || data[0] != 0 {
		log.Fatalf("read back: %v", err)
	}
	if err := blob.Replace(ctx, store, "album-00/img-0000.jpg",
		int64(len(payload)), payload); err != nil {
		log.Fatal(err)
	}

	// An object must fit one shard, not the fleet: a put bigger than any
	// single 64 MB volume fails with the usual typed sentinel even
	// though 256 MB of aggregate space exists.
	if err := blob.Put(ctx, store, "oversized.iso", 128*units.MB, nil); !errors.Is(err, blob.ErrNoSpaceLeft) {
		log.Fatalf("oversized put = %v, want ErrNoSpaceLeft", err)
	}
	fmt.Println("\n128M put over 64M shards fails with blob.ErrNoSpaceLeft: objects never span shards")

	// The aggregated snapshot fans per-shard analysis out in parallel:
	// live/retired bytes, free pool, fragments, occupancy — the stats a
	// capacity planner watches per volume.
	snap := store.Snapshot()
	fmt.Printf("\nsnapshot: %d objects, %s live, %s retired, %.2f frags/obj, imbalance (CV) %.2f\n",
		snap.Objects, units.FormatBytes(snap.LiveBytes),
		units.FormatBytes(snap.RetiredBytes), snap.MeanFragments, snap.LiveImbalance)
	for _, si := range snap.Shards {
		fmt.Printf("  %s (%.0f%% full, %.0f free objects of 512K)\n",
			si, si.Occupancy()*100, si.FreePoolObjects(512*units.KB))
	}

	fmt.Println("\nvirtual time consumed:", fmt.Sprintf("%.2f ms", store.Clock().Seconds()*1000))
	fmt.Println("run `go run ./cmd/fragbench shard` for the full shard-count sweep")
}

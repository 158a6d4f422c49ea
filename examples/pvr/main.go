// PVR: a personal video recorder — one of the paper's motivating
// applications that "continuously allocate and delete large, transient
// objects" (§1).
//
// The recorder cycles through days of programming: every day it records
// new shows (large objects appended in 64 KB requests, final size
// unknown until the broadcast ends — exactly the allocation pattern
// §5.4 blames for fragmentation) and expires the oldest recordings to
// stay under quota. The example tracks fragmentation and effective
// playback (read) throughput as the volume ages, then runs the online
// defragmenter and shows both its benefit and its cost (§6 warns the
// impact "can outweigh its benefits").
//
// Run with:
//
//	go run ./examples/pvr
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/compact"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

const (
	volumeSize  = 8 * units.GB
	quotaBytes  = 6 * units.GB // recordings kept on disk (75% full)
	days        = 30
	showsPerDay = 16
)

func main() {
	ctx := context.Background()
	store, err := stack.Build(vclock.New(), stack.Spec{
		Backends: []string{stack.File},
		Capacity: volumeSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type recording struct {
		key  string
		size int64
	}
	var library []recording
	var live int64
	showID := 0

	record := func(day int) {
		for s := 0; s < showsPerDay; s++ {
			// A show is 15-60 virtual minutes at ~4 Mb/s: 28-112 MB.
			size := (28 + rng.Int63n(85)) * units.MB
			// Expire oldest recordings until the new one fits the quota.
			for live+size > quotaBytes && len(library) > 0 {
				old := library[0]
				library = library[1:]
				if err := store.Delete(ctx, old.key); err != nil {
					log.Fatalf("expire: %v", err)
				}
				live -= old.size
			}
			key := fmt.Sprintf("show-%05d.ts", showID)
			showID++
			// A broadcast streams in 64 KB requests with the final size
			// unknown to the allocator until the recording commits —
			// exactly the §5.4 allocation pattern.
			w, err := store.Create(ctx, key, size)
			if err != nil {
				log.Fatalf("record day %d: %v", day, err)
			}
			if err := w.Append(size, nil); err != nil {
				log.Fatalf("record day %d: %v", day, err)
			}
			if err := w.Commit(); err != nil {
				log.Fatalf("record day %d: %v", day, err)
			}
			library = append(library, recording{key, size})
			live += size
		}
	}

	playbackMBps := func(samples int) float64 {
		w := store.Clock().Seconds()
		var bytes int64
		for i := 0; i < samples; i++ {
			r := library[rng.Intn(len(library))]
			n, _, err := blob.Get(ctx, store, r.key)
			if err != nil {
				log.Fatalf("playback: %v", err)
			}
			bytes += n
		}
		return float64(bytes) / float64(units.MB) / (store.Clock().Seconds() - w)
	}

	fmt.Println("day  recordings  fragments/show  playback MB/s")
	for day := 1; day <= days; day++ {
		record(day)
		if day%5 == 0 || day == 1 {
			rep := frag.Analyze(store)
			fmt.Printf("%3d  %10d  %14.2f  %13.1f\n",
				day, len(library), rep.MeanFragments(), playbackMBps(20))
		}
	}

	// A month in: defragment online and weigh the cost against the win.
	before := frag.Analyze(store).MeanFragments()
	t0 := store.Clock().Seconds()
	defrag, err := compact.New(store, 1)
	if err != nil {
		log.Fatal(err)
	}
	// One pass rewrites up to its byte budget; repeat until a pass moves
	// nothing, which it does once the store counts as healthy again.
	for defrag.RunOnce(ctx).Rewrites > 0 {
	}
	st := defrag.Stats()
	defragCost := store.Clock().Seconds() - t0
	after := frag.Analyze(store).MeanFragments()
	fmt.Printf("\ndefragmenter: %d shows moved, %s rewritten, %.1f -> %.1f fragments/show, %.1f virtual seconds spent\n",
		st.Rewrites, units.FormatBytes(st.RewriteBytes), before, after, defragCost)
	fmt.Printf("post-defrag playback: %.1f MB/s\n", playbackMBps(20))
	fmt.Println("\n§6: \"defragmentation may require additional application logic and imposes")
	fmt.Println("read/write performance impacts that can outweigh its benefits.\"")
}

// Read cache: wrap any blob.Store — here a filesystem volume — in the
// internal/cache layer and watch the read path split in two: hot
// objects served from memory at memory-bandwidth virtual cost, the
// cold tail still paying one disk request per physically contiguous
// fragment. Write-through invalidation keeps the Reader version-pinning
// contract exact: a replace through the cache kills both the cached
// entry and every pinned reader of the dead version.
//
// Run with:
//
//	go run ./examples/readcache
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func main() {
	ctx := context.Background()

	// A 256 MB simulated volume with an 8 MB memory cache above it.
	built, err := stack.Build(vclock.New(), stack.Spec{
		Backends:   []string{stack.File},
		Capacity:   256 * units.MB,
		Mode:       disk.DataMode,
		CacheBytes: 8 * units.MB,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, _ := blob.As[*cache.Store](built) // the cache layer, for its counters
	fmt.Printf("built %s: %s store behind an %s cache\n\n",
		store.Name(), units.FormatBytes(store.CapacityBytes()),
		units.FormatBytes(store.Capacity()))

	// Store a handful of 1 MB objects through the ordinary surface.
	payload := make([]byte, units.MB)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("img-%04d.jpg", i)
		if err := blob.Put(ctx, store, key, int64(len(payload)), payload); err != nil {
			log.Fatal(err)
		}
	}

	// First read: a miss — full per-fragment disk cost, then the object
	// is resident. Second read: a hit at memory speed.
	readTimed := func(key string) float64 {
		w := vclock.StartWatch(store.Clock())
		if _, _, err := blob.Get(ctx, store, key); err != nil {
			log.Fatal(err)
		}
		return w.Seconds() * 1000
	}
	cold := readTimed("img-0000.jpg")
	warm := readTimed("img-0000.jpg")
	fmt.Printf("cold read: %.3f ms of virtual time (disk, per-fragment)\n", cold)
	fmt.Printf("warm read: %.3f ms of virtual time (memory)  -> %.0fx faster\n\n", warm, cold/warm)

	// An 8 MB budget holds 8 of these objects: loop over all 16 and the
	// LRU evicts; the ledger shows the churn.
	for round := 0; round < 2; round++ {
		for i := 0; i < 16; i++ {
			if _, _, err := blob.Get(ctx, store, fmt.Sprintf("img-%04d.jpg", i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	st := store.CacheStats()
	fmt.Printf("after cycling 16 objects through an 8-object budget:\n")
	fmt.Printf("  %d hits, %d misses (%.0f%% hit rate), %d evictions, %s resident\n\n",
		st.Hits, st.Misses, st.HitRate()*100, st.Evictions, units.FormatBytes(st.ResidentBytes))

	// Version pinning survives the cache: open a reader served from
	// memory, replace the object through the cache, and the pinned
	// reader dies with the typed sentinel instead of serving dead bytes.
	r, err := store.Open(ctx, "img-0000.jpg")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := r.ReadAll(); err != nil {
		log.Fatal(err)
	}
	if err := blob.Replace(ctx, store, "img-0000.jpg", int64(len(payload)), payload); err != nil {
		log.Fatal(err)
	}
	if _, err := r.ReadAll(); errors.Is(err, blob.ErrNotFound) {
		fmt.Println("replace through the cache: pinned reader fails blob.ErrNotFound, never the dead version")
	} else {
		log.Fatalf("pinned reader = %v, want ErrNotFound", err)
	}
	_ = r.Close()

	fmt.Println("\nvirtual time consumed:", fmt.Sprintf("%.2f ms", store.Clock().Seconds()*1000))
	fmt.Println("run `go run ./cmd/fragbench readcache -cache 0,64M,256M` for the capacity sweep")
}

package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// built cache(filesystem): 253.44M store behind an 8M cache
	//
	// cold read: 34.899 ms of virtual time (disk, per-fragment)
	// warm read: 0.078 ms of virtual time (memory)  -> 447x faster
	//
	// after cycling 16 objects through an 8-object budget:
	//   2 hits, 32 misses (6% hit rate), 24 evictions, 8M resident
	//
	// replace through the cache: pinned reader fails blob.ErrNotFound, never the dead version
	//
	// virtual time consumed: 2234.88 ms
	// run `go run ./cmd/fragbench readcache -cache 0,64M,256M` for the capacity sweep
}

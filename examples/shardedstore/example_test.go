package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// built sharded-4(database+filesystem): 253.84M total capacity across 4 shards
	//
	// album-00/img-0000.jpg    -> shard 2
	// album-01/img-0001.jpg    -> shard 2
	// album-02/img-0002.jpg    -> shard 3
	// album-03/img-0003.jpg    -> shard 2
	// ...
	//
	// 128M put over 64M shards fails with blob.ErrNoSpaceLeft: objects never span shards
	//
	// snapshot: 40 objects, 20M live, 512K retired, 1.02 frags/obj, imbalance (CV) 0.25
	//   shard-0[filesystem]: 8 objects, 4M live, 0B retired, 59.32M free, 1.00 frags/obj (6% full, 119 free objects of 512K)
	//   shard-1[filesystem]: 13 objects, 6.5M live, 0B retired, 56.8M free, 1.00 frags/obj (10% full, 114 free objects of 512K)
	//   shard-2[filesystem]: 12 objects, 6M live, 512K retired, 56.8M free, 1.00 frags/obj (9% full, 114 free objects of 512K)
	//   shard-3[database]: 7 objects, 3.5M live, 0B retired, 60.19M free, 1.14 frags/obj (5% full, 120 free objects of 512K)
	//
	// virtual time consumed: 3975.28 ms
	// run `go run ./cmd/fragbench shard` for the full shard-count sweep
}

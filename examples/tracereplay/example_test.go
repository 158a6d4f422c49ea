package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// recorded 882 ops from a churn run (age 3.0, 1.61 frags/obj)
	// wrote the log (20.06K)
	//
	// replay k=1: 882 ops, 1.61 frags/obj (recorded run had 1.61)
	// replay k=8: 882 ops
	//
	// run `go run ./cmd/fragbench -streams 1,4,16 tracereplay` for the full sweep
}

package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// --- filesystem backend ---
	// read vacation.jpg back (262144 bytes, first byte 0)
	// ranged read of the final 4 KB (last byte 99)
	// after safe replace, first byte = 0xff
	// missing objects report blob.ErrNotFound
	// layout: 1 objects, 1.00 fragments/object (max 1)
	// virtual time consumed: 133.96 ms
	//
	// --- database backend ---
	// read vacation.jpg back (262144 bytes, first byte 0)
	// ranged read of the final 4 KB (last byte 99)
	// after safe replace, first byte = 0xff
	// missing objects report blob.ErrNotFound
	// layout: 1 objects, 1.00 fragments/object (max 1)
	// virtual time consumed: 90.53 ms
	//
	// folklore check (§3.1): database wins small objects, filesystem wins large —
	// run `go run ./cmd/fragbench fig1` to see where the break-even point sits.
}

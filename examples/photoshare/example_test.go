package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// --- filesystem backend ---
	// uploaded 24 albums (1152 photos, 576M): 1.00 fragments/object
	// after grouped delete + re-upload: 1.05 fragments/object
	// after one generation of random replacement: 1.35 fragments/object
	// => uncorrelated churn fragments more than grouped churn, as §3.2 predicts
	//
	// --- database backend ---
	// uploaded 24 albums (1152 photos, 576M): 1.13 fragments/object
	// after grouped delete + re-upload: 1.26 fragments/object
	// after one generation of random replacement: 1.49 fragments/object
	// => uncorrelated churn fragments more than grouped churn, as §3.2 predicts
}

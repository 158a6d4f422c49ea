package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// document archive: 512KB documents, safe-write saves, 2GB volumes
	//
	// backend     age   MB/s(read)  frags/doc
	// database      0       15.13       1.13
	// database      1       13.64       1.35
	// database      2       12.93       1.72
	// database      3       10.95       2.30
	// database      4        9.45       3.06
	//
	// filesystem    0       10.79       1.00
	// filesystem    1        9.85       1.34
	// filesystem    2        9.55       1.51
	// filesystem    3        9.36       1.67
	// filesystem    4        9.16       1.82
	//
	// => the database held its lead for 512KB documents over this horizon
	//    (§6: "Between 256KB and 1MB, storage age determines which system performs better.")
	//
	// versioned store keeps 3 live versions of budget.xls (WebDAV-style, §1)
}

package main

// Example runs the example end to end and pins what it prints: the
// simulation is seeded and runs on a virtual clock, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// day  recordings  fragments/show  playback MB/s
	//   1          16            1.00           60.0
	//   5          80            1.00           48.5
	//  10          83            1.18           49.8
	//  15          90            1.48           48.3
	//  20          88            1.73           49.0
	//  25          91            1.75           48.5
	//  30          85            1.89           50.7
	//
	// defragmenter: 17 shows moved, 1.41G rewritten, 1.9 -> 1.2 fragments/show, 62.7 virtual seconds spent
	// post-defrag playback: 46.2 MB/s
	//
	// §6: "defragmentation may require additional application logic and imposes
	// read/write performance impacts that can outweigh its benefits."
}

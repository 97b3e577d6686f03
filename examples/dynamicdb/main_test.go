package main

// Example runs the program and holds its whole output, so a change that
// moves any number it prints fails go test.
func Example() {
	main()
	// Output:
	// streaming 476 points of 166 dims in batches
	//   after  200 points: refit #1 (top eigenvalue 535.5)
	//   after  400 points: refit #2 (top eigenvalue 554.3)
	//
	// 3-NN accuracy in 13-dim reduced space: streamed 92.8%, batch 93.1%
	// transform refits: 2 (vs 5 batches ingested)
}

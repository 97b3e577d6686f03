package main

// Example runs the program and holds its whole output, so a change that
// moves any number it prints fails go test.
func Example() {
	main()
	// Output:
	// data: arrhythmia-6k: 6000 points, 279 dims, 8 classes
	//
	// full dimensionality (279 dims):
	//   kd-tree scans  95.6% of vectors per 3-NN query |###############################################
	//   r-tree  scans  88.9% of vectors per 3-NN query |############################################
	//   va-file scans   0.2% of vectors per 3-NN query |
	//
	// aggressively reduced (10 dims):
	//   kd-tree scans  16.3% of vectors per 3-NN query |########
	//   r-tree  scans  17.5% of vectors per 3-NN query |########
	//   va-file scans   0.1% of vectors per 3-NN query |
	//
	// reduction turns the partition indexes from useless to effective —
	// "greater aggression in dimensionality reduction translates to better performance."
}

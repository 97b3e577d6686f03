package main

// Example runs the program and holds its whole output, so a change that
// moves any number it prints fails go test.
func Example() {
	main()
	// Output:
	// data: ionosphere-like: 351 points, 34 dims, 2 classes
	//
	// top components (eigenvalue / coherence probability):
	//   e1   λ=7.606   P(D,e)=0.896
	//   e2   λ=3.718   P(D,e)=0.721
	//   e3   λ=3.351   P(D,e)=0.718
	//   e4   λ=3.332   P(D,e)=0.702
	//   e5   λ=2.771   P(D,e)=0.665
	//   e6   λ=1.551   P(D,e)=0.604
	//   e7   λ=1.193   P(D,e)=0.545
	//   e8   λ=1.141   P(D,e)=0.546
	//
	// retaining 8 of 34 components (73% of variance)
	// 3-NN class-match accuracy: full 92.4% -> reduced 93.7%
	//
	// nearest neighbors of point 0 in the reduced space:
	//   point 22   dist=2.306 (same class)
	//   point 128  dist=2.453 (same class)
	//   point 64   dist=2.691 (same class)
	//   point 186  dist=2.838 (same class)
}

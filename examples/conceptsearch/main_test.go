package main

// Example runs the program and holds its whole output, so a change that
// moves any number it prints fails go test.
func Example() {
	main()
	// Output:
	// corpus: synthetic corpus: 500 points, 663 dims, 4 classes
	// vocabulary: 600 topical terms in 100 synonym groups, 48 context terms, 15 stopwords
	//
	// top of the spectrum (eigenvalue / coherence):
	//   e1  λ=9.52     P(D,e)=0.640
	//   e2  λ=6.36     P(D,e)=0.587
	//   e3  λ=5.24     P(D,e)=0.591
	//   e4  λ=3.92     P(D,e)=0.577
	//   e5  λ=2.93     P(D,e)=0.555
	//   e6  λ=2.54     P(D,e)=0.561
	//
	// 3-NN topic-match accuracy (cosine): raw term space (663 dims): 68.7%
	//   eigenvalue-ordered:  2d=25.7%  4d=25.2%  8d=26.1%  16d=68.8%  32d=69.9%  64d=71.9%   (best 71.9% at 64 dims)
	//   coherence-ordered :  2d=54.2%  4d=86.1%  8d=91.7%  16d=96.7%  32d=99.3%  64d=100.0%   (best 100.0% at 64 dims)
	//
	// query: document 0 (topic 0)
	//   raw-term neighbors: doc200(topic 0) doc100(topic 0) doc300(topic 0)
	//   concept  neighbors: doc100(topic 0) doc300(topic 0) doc296(topic 0)
	//
	// the stopword variance owns the top eigenvalues but has low coherence;
	// picking by coherence probability recovers the semantic concepts.
}

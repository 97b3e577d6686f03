package main

// Example runs the program and holds its whole output, so a change that
// moves any number it prints fails go test.
func Example() {
	main()
	// Output:
	// data: noisy-A: 351 points, 34 dims, 2 classes (corrupted columns: [6 5 26 21 22 12 8 4 15 27])
	//
	// spectrum (descending eigenvalue):
	//   e1  λ=3.73   P(D,e)=0.558   <- low coherence: noise
	//   e2  λ=3.44   P(D,e)=0.541   <- low coherence: noise
	//   e3  λ=3.37   P(D,e)=0.543   <- low coherence: noise
	//   e4  λ=3.18   P(D,e)=0.544   <- low coherence: noise
	//   e5  λ=3.09   P(D,e)=0.549   <- low coherence: noise
	//   e6  λ=2.93   P(D,e)=0.537   <- low coherence: noise
	//   e7  λ=2.89   P(D,e)=0.521   <- low coherence: noise
	//   e8  λ=2.62   P(D,e)=0.510   <- low coherence: noise
	//   e9  λ=2.39   P(D,e)=0.499   <- low coherence: noise
	//   e10 λ=2.23   P(D,e)=0.493   <- low coherence: noise
	//   e11 λ=1.41   P(D,e)=0.719
	//   e12 λ=0.72   P(D,e)=0.659
	//   e13 λ=0.65   P(D,e)=0.662
	//   e14 λ=0.51   P(D,e)=0.621
	// the 10 largest eigenvalues are the injected noise; the concepts hide below them
	//
	// accuracy vs dims retained — eigenvalue ordering (classical)
	//    2 dims  48.6% |#############################
	//    5 dims  51.6% |##############################
	//   10 dims  55.3% |#################################
	//   15 dims  70.4% |##########################################
	//   20 dims  69.8% |#########################################
	//   34 dims  70.3% |##########################################
	//   optimum: 70.4% at 15 dims
	//
	// accuracy vs dims retained — coherence ordering (the paper's rule)
	//    2 dims  82.9% |#################################################
	//    5 dims  82.6% |#################################################
	//   10 dims  77.2% |##############################################
	//   15 dims  68.3% |########################################
	//   20 dims  69.8% |#########################################
	//   34 dims  70.3% |##########################################
	//   optimum: 82.9% at 2 dims
	//
	// coherence ordering dominates at every aggressive dimensionality:
	// the eigenvalue rule spends its budget on noise; the coherence rule on concepts.
}

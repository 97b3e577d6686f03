// Package stats provides the statistical substrate for the coherence model:
// means, the standard normal distribution (the paper's coherence probability
// is 2Φ(z)−1), covariance and correlation matrices, rank correlation, and
// histograms.
package stats

// Mean returns the arithmetic mean of xs. Panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the smallest and largest values in xs. Panics on empty
// input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

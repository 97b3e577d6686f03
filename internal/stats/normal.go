package stats

import "math"

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// StdNormal is the standard normal distribution N(0, 1).
var StdNormal = Normal{Mu: 0, Sigma: 1}

// CDF returns P(X <= x), the cumulative distribution function Φ for the
// standard normal. The paper's coherence probability is 2Φ(z) − 1.
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// TwoSidedProbability returns the probability mass of the standard normal
// within z standard deviations of the mean: 2Φ(z) − 1 for z >= 0.
// This is exactly the paper's CoherenceProbability transform (Equation 2).
// Negative z is treated as |z|.
func TwoSidedProbability(z float64) float64 {
	z = math.Abs(z)
	// 2Φ(z) − 1 = erf(z/√2), computed directly to avoid cancellation.
	return math.Erf(z / math.Sqrt2)
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStdNormalCDFTableValues(t *testing.T) {
	// Reference values from standard normal tables.
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.96, 0.9750021048517795},
		{2, 0.9772498680518208},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316301035},
	}
	for _, tc := range cases {
		if got := StdNormal.CDF(tc.z); !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("CDF(%v) = %v, want %v", tc.z, got, tc.want)
		}
	}
}

func TestTwoSidedProbability(t *testing.T) {
	// The paper's §3 invariant: at coherence factor 1 the coherence
	// probability is 2Φ(1) − 1 ≈ 0.6827.
	if got := TwoSidedProbability(1); !almostEqual(got, 0.6826894921370859, 1e-12) {
		t.Fatalf("TwoSidedProbability(1) = %v", got)
	}
	if got := TwoSidedProbability(0); got != 0 {
		t.Fatalf("TwoSidedProbability(0) = %v", got)
	}
	// 2σ and 3σ rules.
	if got := TwoSidedProbability(2); !almostEqual(got, 0.9544997361036416, 1e-12) {
		t.Fatalf("TwoSidedProbability(2) = %v", got)
	}
	if got := TwoSidedProbability(3); !almostEqual(got, 0.9973002039367398, 1e-12) {
		t.Fatalf("TwoSidedProbability(3) = %v", got)
	}
	// Sign-insensitive.
	if TwoSidedProbability(-2) != TwoSidedProbability(2) {
		t.Fatalf("TwoSidedProbability must use |z|")
	}
}

func TestTwoSidedProbabilityProperties(t *testing.T) {
	// Bounded in [0,1) and monotone in |z|.
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		p := TwoSidedProbability(z)
		if p < 0 || p > 1 {
			return false
		}
		bigger := TwoSidedProbability(math.Abs(z) + 0.5)
		return bigger >= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSidedMatchesDefinition(t *testing.T) {
	// 2Φ(z) − 1 computed via CDF must agree with the erf short-cut.
	for _, z := range []float64{0.1, 0.5, 1, 1.7, 2.4, 4} {
		direct := 2*StdNormal.CDF(z) - 1
		if got := TwoSidedProbability(z); !almostEqual(got, direct, 1e-12) {
			t.Fatalf("z=%v: %v vs %v", z, got, direct)
		}
	}
}

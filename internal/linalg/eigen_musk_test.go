package linalg_test

import (
	"testing"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// TestEigSymBitIdenticalToOracleMuskLike is the oracle grid's seventh
// family, the input the paper's pipeline actually decomposes: the covariance
// of the Musk-like generator's centered data, with the generator's
// dimensionality swept through the grid (166 is the preset itself).
func TestEigSymBitIdenticalToOracleMuskLike(t *testing.T) {
	for _, n := range linalg.OracleSizes {
		cfg := synthetic.MuskLikeConfig(1)
		cfg.Dims = n
		if len(cfg.ConceptStrengths) > n {
			cfg.ConceptStrengths = cfg.ConceptStrengths[:n]
		}
		centered, _ := stats.Center(synthetic.MustGenerate(cfg).X)
		if diff := linalg.DiffEigenBits(stats.CovarianceMatrix(centered)); diff != "" {
			t.Errorf("musk-like n=%d: %s", n, diff)
		}
	}
}

package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// RowStream generates the latent-factor model row by row with O(d·k)
// memory. It is the one row kernel of the model: Generate copies its first
// N rows into a matrix, and a store build streams it twice (scale pass,
// encode pass) without ever materializing the float64 matrix.
type RowStream struct {
	cfg    LatentFactorConfig
	wt     [][]float64 // k rows of d: the strength-scaled mixing matrix Wᵀ
	mus    [][]float64
	scales []float64
	rng    *rand.Rand
	next   int
	z      []float64
	noise  []float64
	row    []float64
}

// NewRowStream validates the config and builds the model prelude (mixing
// matrix, class means, per-dimension scales).
func NewRowStream(c LatentFactorConfig) (*RowStream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	k := len(c.ConceptStrengths)
	d := c.Dims

	// Mixing matrix W: random directions, orthonormalized so each concept is
	// a distinct direction, then scaled by concept strength. It is kept
	// transposed, one concept per row, for Next's concept-outer walk.
	raw := linalg.NewDense(d, k)
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			raw.Set(i, j, rng.NormFloat64())
		}
	}
	w := linalg.GramSchmidt(raw)
	if w.Cols() < k {
		// Random Gaussian columns in d >= k dimensions are almost surely
		// independent; regenerate deterministically if not.
		return nil, fmt.Errorf("synthetic: degenerate mixing matrix (%d of %d concepts)", w.Cols(), k)
	}
	wt := make([][]float64, k)
	for j := range wt {
		wt[j] = w.Col(j)
		linalg.ScaleVec(c.ConceptStrengths[j], wt[j])
	}

	// Per-class latent means.
	mus := make([][]float64, c.Classes)
	for cls := range mus {
		mu := make([]float64, k)
		for j := range mu {
			mu[j] = rng.NormFloat64() * c.ClassSeparation
		}
		mus[cls] = mu
	}

	// Per-dimension scales.
	scales := make([]float64, d)
	for j := range scales {
		if c.ScaleSpread == 0 {
			scales[j] = 1
		} else {
			scales[j] = math.Pow(10, (rng.Float64()-0.5)*c.ScaleSpread)
		}
	}
	return &RowStream{
		cfg: c, wt: wt, mus: mus, scales: scales, rng: rng,
		z: make([]float64, k), noise: make([]float64, d), row: make([]float64, d),
	}, nil
}

// Next returns the next row and its class label. The returned slice is
// reused by the following Next call; copy it to retain. It panics past row
// N−1 (the stream is finite by construction, like the matrix Generate
// fills from it).
//
// Row element dd is the chain v = 0; v += W[dd][j]·z[j] for j = 0 … k−1;
// (v + ε_dd·σ)·scale_dd. Each chain is sequential, but the d chains are
// independent, so they advance together — concept-outer, dimension-inner,
// four concepts per pass over the row, each element still adding them in
// concept order — and the loop is bound by throughput, not by the latency
// of one chain. The random draws keep their order: z, then ε for every
// dimension.
func (s *RowStream) Next() ([]float64, int) {
	if s.next >= s.cfg.N {
		panic(fmt.Sprintf("synthetic: RowStream read past %d rows", s.cfg.N))
	}
	cls := s.next % s.cfg.Classes // balanced classes
	for j, mu := range s.mus[cls] {
		s.z[j] = mu + s.rng.NormFloat64()
	}
	for dd := range s.noise {
		s.noise[dd] = s.rng.NormFloat64()
	}
	row := s.row
	clear(row)
	wt, z := s.wt, s.z[:len(s.wt)]
	for len(wt) >= 4 && len(z) >= 4 {
		w0, w1, w2, w3 := wt[0][:len(row)], wt[1][:len(row)], wt[2][:len(row)], wt[3][:len(row)]
		z0, z1, z2, z3 := z[0], z[1], z[2], z[3]
		for dd, v := range row {
			row[dd] = v + w0[dd]*z0 + w1[dd]*z1 + w2[dd]*z2 + w3[dd]*z3
		}
		wt, z = wt[4:], z[4:]
	}
	for j, w := range wt {
		zj := z[j]
		w = w[:len(row)]
		for dd, v := range w {
			row[dd] += v * zj
		}
	}
	sigma, noise, scales := s.cfg.NoiseStdDev, s.noise[:len(row)], s.scales[:len(row)]
	for dd, v := range row {
		row[dd] = (v + noise[dd]*sigma) * scales[dd]
	}
	s.next++
	return row, cls
}

// Reset rewinds the stream to row 0: the model prelude is rebuilt from the
// seed, so a second pass replays the identical rows. This is how the
// two-pass store build (scale pass, encode pass) reads the data twice with
// O(d) memory.
func (s *RowStream) Reset() error {
	fresh, err := NewRowStream(s.cfg)
	if err != nil {
		return err
	}
	*s = *fresh
	return nil
}

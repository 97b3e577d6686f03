package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// RowStream generates the latent-factor model row by row with O(d·k)
// memory, so cmd/datagen can emit million-point sets straight into the
// quantized store format without ever materializing the float64 matrix.
// For a given config it draws from exactly the same random stream as
// Generate: the first N rows of NewRowStream(c) are bit-identical to
// Generate(c).X's rows.
type RowStream struct {
	cfg    LatentFactorConfig
	w      *linalg.Dense // d×k mixing matrix, strength-scaled
	mus    [][]float64
	scales []float64
	rng    *rand.Rand
	next   int
	z, row []float64
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

	// The prelude draws mirror Generate exactly, in the same order, so the
	// two construction paths share one distribution per seed.
	raw := linalg.NewDense(d, k)
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			raw.Set(i, j, rng.NormFloat64())
		}
	}
	w := linalg.GramSchmidt(raw)
	if w.Cols() < k {
		return nil, fmt.Errorf("synthetic: degenerate mixing matrix (%d of %d concepts)", w.Cols(), k)
	}
	for j := 0; j < k; j++ {
		col := w.Col(j)
		linalg.ScaleVec(c.ConceptStrengths[j], col)
		w.SetCol(j, col)
	}
	mus := make([][]float64, c.Classes)
	for cls := range mus {
		mu := make([]float64, k)
		for j := range mu {
			mu[j] = rng.NormFloat64() * c.ClassSeparation
		}
		mus[cls] = mu
	}
	scales := make([]float64, d)
	for j := range scales {
		if c.ScaleSpread == 0 {
			scales[j] = 1
		} else {
			scales[j] = math.Pow(10, (rng.Float64()-0.5)*c.ScaleSpread)
		}
	}
	return &RowStream{
		cfg: c, w: w, mus: mus, scales: scales, rng: rng,
		z: make([]float64, k), row: make([]float64, d),
	}, nil
}

// Next returns the next row and its class label. The returned slice is
// reused by the following Next call; copy it to retain. It panics past row
// N−1 (the stream is finite by construction, like the matrix it replaces).
func (s *RowStream) Next() ([]float64, int) {
	if s.next >= s.cfg.N {
		panic(fmt.Sprintf("synthetic: RowStream read past %d rows", s.cfg.N))
	}
	k := len(s.z)
	cls := s.next % s.cfg.Classes // balanced classes, as in Generate
	for j := 0; j < k; j++ {
		s.z[j] = s.mus[cls][j] + s.rng.NormFloat64()
	}
	for dd := 0; dd < s.cfg.Dims; dd++ {
		v := 0.0
		for j := 0; j < k; j++ {
			v += s.w.At(dd, j) * s.z[j]
		}
		v += s.rng.NormFloat64() * s.cfg.NoiseStdDev
		s.row[dd] = v * s.scales[dd]
	}
	s.next++
	return s.row, cls
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

package synthetic

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// RowStream generates the latent-factor model row by row with O(d·k)
// memory. It is the one row kernel of the model: Generate writes its N rows
// straight into a matrix, and a store build streams it twice (scale pass,
// encode pass) without ever materializing the float64 matrix.
type RowStream struct {
	cfg    LatentFactorConfig
	wt     []float64 // k×d, one concept per row: the strength-scaled mixing matrix Wᵀ
	mus    [][]float64
	scales []float64
	src    *normalSource
	next   int
	draws  []float64 // one row's normal draws in draw order: z (k), then ε (d)
	row    []float64
}

// NewRowStream validates the config and builds the model prelude (mixing
// matrix, class means, per-dimension scales). The prelude and the rows
// draw, in that order, from one stream: rand.New(rand.NewSource(c.Seed))'s.
func NewRowStream(c LatentFactorConfig) (*RowStream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	src := newNormalSource(c.Seed)
	k := len(c.ConceptStrengths)
	d := c.Dims

	// Mixing matrix W: random directions, orthonormalized so each concept is
	// a distinct direction, then scaled by concept strength. It is kept
	// transposed, one concept per row of one k×d slab, for MixRow.
	raw := linalg.NewDense(d, k)
	src.fill(raw.RawData())
	w := linalg.GramSchmidt(raw)
	if w.Cols() < k {
		// Random Gaussian columns in d >= k dimensions are almost surely
		// independent; regenerate deterministically if not.
		return nil, fmt.Errorf("synthetic: degenerate mixing matrix (%d of %d concepts)", w.Cols(), k)
	}
	wt := make([]float64, k*d)
	for j := 0; j < k; j++ {
		col := wt[j*d : (j+1)*d]
		for i := range col {
			col[i] = w.At(i, j)
		}
		linalg.ScaleVec(c.ConceptStrengths[j], col)
	}

	// Per-class latent means.
	mus := make([][]float64, c.Classes)
	for cls := range mus {
		mu := make([]float64, k)
		src.fill(mu)
		linalg.ScaleVec(c.ClassSeparation, mu)
		mus[cls] = mu
	}

	// Per-dimension scales.
	scales := make([]float64, d)
	for j := range scales {
		if c.ScaleSpread == 0 {
			scales[j] = 1
		} else {
			scales[j] = math.Pow(10, (src.Float64()-0.5)*c.ScaleSpread)
		}
	}
	return &RowStream{
		cfg: c, wt: wt, mus: mus, scales: scales, src: src,
		draws: make([]float64, k+d), row: make([]float64, d),
	}, nil
}

// Next returns the next row and its class label. The returned slice is
// reused by the following Next call; copy it to retain. It panics past row
// N−1 (the stream is finite by construction, like the matrix Generate
// fills from it).
func (s *RowStream) Next() ([]float64, int) {
	cls := s.nextInto(s.row)
	return s.row, cls
}

// nextInto writes the next row into row and returns its label, in two
// batched steps: one fill of the row's k + d normal draws (z, then ε for
// every dimension), then linalg.MixRow, whose element dd is the chain
// v = 0; v += W[dd][j]·z[j] for j = 0 … k−1; (v + ε_dd·σ)·scale_dd.
func (s *RowStream) nextInto(row []float64) int {
	if s.next >= s.cfg.N {
		panic(fmt.Sprintf("synthetic: RowStream read past %d rows", s.cfg.N))
	}
	cls := s.next % s.cfg.Classes // balanced classes
	mu := s.mus[cls]
	s.src.fill(s.draws)
	z, eps := s.draws[:len(mu)], s.draws[len(mu):]
	for j, m := range mu {
		z[j] = m + z[j]
	}
	linalg.MixRow(row, s.wt, z, eps, s.cfg.NoiseStdDev, s.scales)
	s.next++
	return cls
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

// Package synthetic generates labelled high-dimensional data sets with
// controllable latent structure. It stands in for the UCI Musk, Ionosphere
// and Arrhythmia data sets used in the paper's evaluation (see DESIGN.md §4
// for the substitution argument): each generator produces data with low
// implicit dimensionality (a few correlated "concepts"), a class variable
// driven by those concepts, heterogeneous per-dimension scales, and ambient
// noise — the structural properties the paper's analysis depends on.
package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// LatentFactorConfig describes a data set generated from the model
//
//	x = S · (W z + ε),  z = μ_class + N(0, I_k),  ε ~ N(0, σ² I_d)
//
// where W is a d x k mixing matrix with unit-norm columns scaled by the
// per-concept strengths, and S is a diagonal per-dimension scale matrix that
// injects the scale heterogeneity of §2.2 of the paper.
type LatentFactorConfig struct {
	// Name labels the generated data set.
	Name string
	// N is the number of points.
	N int
	// Dims is the ambient dimensionality d.
	Dims int
	// Classes is the number of class labels (>= 2).
	Classes int
	// ConceptStrengths gives the standard-deviation multiplier of each
	// latent concept; its length is the latent dimensionality k. Stronger
	// concepts produce larger eigenvalues along their mixed directions.
	ConceptStrengths []float64
	// ClassSeparation scales the distance between per-class latent means.
	// Zero makes the label independent of the features.
	ClassSeparation float64
	// NoiseStdDev is the standard deviation of the isotropic ambient noise ε.
	NoiseStdDev float64
	// ScaleSpread controls per-dimension scale heterogeneity: dimension j is
	// multiplied by 10^(u_j · ScaleSpread) with u_j uniform in [−0.5, 0.5).
	// Zero leaves all dimensions on a common scale.
	ScaleSpread float64
	// Seed drives all randomness; identical configs produce identical data.
	Seed int64
}

// Validate reports configuration errors.
func (c *LatentFactorConfig) Validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("synthetic: N=%d must be >= 2", c.N)
	case c.Dims < 1:
		return fmt.Errorf("synthetic: Dims=%d must be >= 1", c.Dims)
	case c.Classes < 2:
		return fmt.Errorf("synthetic: Classes=%d must be >= 2", c.Classes)
	case len(c.ConceptStrengths) == 0:
		return fmt.Errorf("synthetic: ConceptStrengths must be non-empty")
	case len(c.ConceptStrengths) > c.Dims:
		return fmt.Errorf("synthetic: %d concepts exceed %d dims", len(c.ConceptStrengths), c.Dims)
	case c.NoiseStdDev < 0:
		return fmt.Errorf("synthetic: NoiseStdDev=%v must be >= 0", c.NoiseStdDev)
	}
	for i, s := range c.ConceptStrengths {
		if s <= 0 {
			return fmt.Errorf("synthetic: ConceptStrengths[%d]=%v must be > 0", i, s)
		}
	}
	return nil
}

// Generate builds the data set described by the config.
func Generate(c LatentFactorConfig) (*dataset.Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	k := len(c.ConceptStrengths)
	d := c.Dims

	// Mixing matrix W: random directions, orthonormalized so each concept is
	// a distinct direction, then scaled by concept strength.
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
	for j := 0; j < k; j++ {
		col := w.Col(j)
		linalg.ScaleVec(c.ConceptStrengths[j], col)
		w.SetCol(j, col)
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

	x := linalg.NewDense(c.N, d)
	labels := make([]int, c.N)
	z := make([]float64, k)
	for i := 0; i < c.N; i++ {
		cls := i % c.Classes // balanced classes
		labels[i] = cls
		for j := 0; j < k; j++ {
			z[j] = mus[cls][j] + rng.NormFloat64()
		}
		row := x.RawRow(i)
		// row = W z + noise, then apply per-dimension scales.
		for dd := 0; dd < d; dd++ {
			v := 0.0
			for j := 0; j < k; j++ {
				v += w.At(dd, j) * z[j]
			}
			v += rng.NormFloat64() * c.NoiseStdDev
			row[dd] = v * scales[dd]
		}
	}

	ds, err := dataset.New(c.Name, x, labels)
	if err != nil {
		return nil, err
	}
	names := make([]string, c.Classes)
	for i := range names {
		names[i] = fmt.Sprintf("class-%d", i)
	}
	ds.ClassNames = names
	return ds, nil
}

// MustGenerate is Generate but panics on error, for presets with known-valid
// configurations.
func MustGenerate(c LatentFactorConfig) *dataset.Dataset {
	ds, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return ds
}

// UniformCube returns n points uniformly distributed in the unit hypercube
// [−0.5, 0.5]^d centered at the origin — the paper's §3 worst case, where
// implicit dimensionality equals ambient dimensionality. Labels alternate
// between two classes and are independent of the features.
func UniformCube(name string, n, d int, seed int64) *dataset.Dataset {
	if n < 2 || d < 1 {
		panic(fmt.Sprintf("synthetic: UniformCube n=%d d=%d", n, d))
	}
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewDense(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		for j := range row {
			row[j] = rng.Float64() - 0.5
		}
		labels[i] = i % 2
	}
	return dataset.MustNew(name, x, labels)
}

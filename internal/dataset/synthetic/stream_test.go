package synthetic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func streamTestConfig() LatentFactorConfig {
	c := MuskLikeConfig(41)
	c.N = 257 // not a multiple of Classes, exercises the label cycle
	c.Dims = 23
	return c
}

// TestRowStreamMatchesGenerate pins the contract that makes two-pass store
// builds sound: the streamed rows are bit-identical to the materialized
// matrix for the same config.
func TestRowStreamMatchesGenerate(t *testing.T) {
	c := streamTestConfig()
	ds, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		row, label := st.Next()
		if label != ds.Labels[i] {
			t.Fatalf("row %d: label %d, want %d", i, label, ds.Labels[i])
		}
		want := ds.X.RawRow(i)
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d dim %d: %v != %v", i, j, row[j], want[j])
			}
		}
	}
}

// TestRowStreamReset verifies that a second pass replays identical rows.
func TestRowStreamReset(t *testing.T) {
	c := streamTestConfig()
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	first := make([][]float64, c.N)
	for i := range first {
		row, _ := st.Next()
		first[i] = append([]float64(nil), row...)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		row, _ := st.Next()
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(first[i][j]) {
				t.Fatalf("after Reset, row %d dim %d: %v != %v", i, j, row[j], first[i][j])
			}
		}
	}
}

// TestRowStreamExhaustionPanics pins the finite-stream contract.
func TestRowStreamExhaustionPanics(t *testing.T) {
	c := streamTestConfig()
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		st.Next()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next past N did not panic")
		}
	}()
	st.Next()
}

func TestRowStreamRejectsInvalidConfig(t *testing.T) {
	c := streamTestConfig()
	c.Classes = 1
	if _, err := NewRowStream(c); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// generateOracle is Generate as it was before RowStream became its row
// kernel: one dimension at a time, each value a k-step chain with its noise
// drawn in between, frozen here. Next promises the same draws and the same
// floating-point operations per value in the same order, so its rows must
// match this bit for bit; do not "tidy" this function.
func generateOracle(c LatentFactorConfig) (*linalg.Dense, []int, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	k := len(c.ConceptStrengths)
	d := c.Dims
	raw := linalg.NewDense(d, k)
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			raw.Set(i, j, rng.NormFloat64())
		}
	}
	w := linalg.GramSchmidt(raw)
	if w.Cols() < k {
		return nil, nil, fmt.Errorf("degenerate mixing matrix (%d of %d concepts)", w.Cols(), k)
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
	x := linalg.NewDense(c.N, d)
	labels := make([]int, c.N)
	z := make([]float64, k)
	for i := 0; i < c.N; i++ {
		cls := i % c.Classes
		labels[i] = cls
		for j := 0; j < k; j++ {
			z[j] = mus[cls][j] + rng.NormFloat64()
		}
		row := x.RawRow(i)
		for dd := 0; dd < d; dd++ {
			v := 0.0
			for j := 0; j < k; j++ {
				v += w.At(dd, j) * z[j]
			}
			v += rng.NormFloat64() * c.NoiseStdDev
			row[dd] = v * scales[dd]
		}
	}
	return x, labels, nil
}

// TestGenerateBitIdenticalToOracle holds Generate, and through
// TestRowStreamMatchesGenerate every RowStream, to the per-value loop it
// replaced: the three presets, no noise, no scale spread, and as many
// concepts as dimensions.
func TestGenerateBitIdenticalToOracle(t *testing.T) {
	noNoise := MuskLikeConfig(3)
	noNoise.NoiseStdDev = 0
	noSpread := IonosphereLikeConfig(4)
	noSpread.ScaleSpread = 0
	square := LatentFactorConfig{
		Name: "k=d", N: 61, Dims: 9, Classes: 3,
		ConceptStrengths: []float64{5, 4, 3, 3, 2, 2, 1, 1, 0.5},
		ClassSeparation:  1, NoiseStdDev: 0.7, ScaleSpread: 2, Seed: 5,
	}
	for _, c := range []LatentFactorConfig{
		MuskLikeConfig(1), IonosphereLikeConfig(2), ArrhythmiaLikeConfig(3),
		noNoise, noSpread, square,
	} {
		ds, err := Generate(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want, labels, err := generateOracle(c)
		if err != nil {
			t.Fatalf("%s oracle: %v", c.Name, err)
		}
		for i, l := range labels {
			if ds.Labels[i] != l {
				t.Fatalf("%s row %d: label %d, oracle %d", c.Name, i, ds.Labels[i], l)
			}
			got, w := ds.X.RawRow(i), want.RawRow(i)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%s row %d dim %d: %v (%#x), oracle %v (%#x)", c.Name, i, j,
						got[j], math.Float64bits(got[j]), w[j], math.Float64bits(w[j]))
				}
			}
		}
	}
}

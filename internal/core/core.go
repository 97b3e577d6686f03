// Package core implements the paper's primary contribution: the coherence
// model for judging how meaningful each direction produced by a
// dimensionality-reduction transform is (Aggarwal, "On the Effects of
// Dimensionality Reduction on High Dimensional Similarity Search",
// PODS 2001, §2).
//
// For a mean-centered data point X = (x₁,…,x_d) and a unit direction e, the
// projection X·e decomposes into per-original-dimension contributions
// c_j = x_j·e_j. Under the null hypothesis that the c_j are i.i.d. draws
// from a zero-mean distribution, the average contribution X·e/d would be
// within noise of zero; the coherence factor measures how many standard
// errors it actually is from zero:
//
//	σ(e,X)  = sqrt( Σ_j c_j² / d )              (RMS about the null mean 0)
//	CF(X,e) = (|X·e|/d) / (σ(e,X)/√d)
//	CP(X,e) = 2Φ(CF) − 1                        (coherence probability)
//	P(D,e)  = mean of CP(Y,e) over the data set (Equation 3)
//
// High P(D,e) means the original dimensions "agree" along e — the paper's
// notion of a semantic concept; low P(D,e) marks e as noise regardless of
// its eigenvalue.
package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Contributions returns the per-original-dimension contributions
// c_j = x_j·e_j whose sum is the projection x·e (Equation 1). x must already
// be centered (the model assumes the data mean is at the origin).
func Contributions(x, e []float64) []float64 {
	if len(x) != len(e) {
		panic(fmt.Sprintf("core: Contributions length mismatch %d vs %d", len(x), len(e)))
	}
	c := make([]float64, len(x))
	for j := range x {
		c[j] = x[j] * e[j]
	}
	return c
}

// CoherenceFactor returns the coherence factor of the centered point x along
// direction e: the number of standard deviations by which the mean
// contribution deviates from the null-hypothesis mean of zero. A zero point
// (σ = 0) has coherence factor 0.
func CoherenceFactor(x, e []float64) float64 {
	if len(x) != len(e) {
		panic(fmt.Sprintf("core: CoherenceFactor length mismatch %d vs %d", len(x), len(e)))
	}
	d := float64(len(x))
	proj := 0.0
	sumSq := 0.0
	for j := range x {
		c := x[j] * e[j]
		proj += c
		sumSq += c * c
	}
	if sumSq == 0 {
		return 0
	}
	sigma := math.Sqrt(sumSq / d)
	// (|proj|/d) / (sigma/√d) = |proj| / (sigma·√d).
	return math.Abs(proj) / (sigma * math.Sqrt(d))
}

// CoherenceProbability returns 2Φ(CF)−1 for the centered point x along e:
// the probability mass of the null distribution lying closer to zero than
// the observed mean contribution (Equation 2). It lies in [0, 1).
func CoherenceProbability(x, e []float64) float64 {
	return stats.TwoSidedProbability(CoherenceFactor(x, e))
}

// DatasetCoherence returns P(D,e): the mean coherence probability of
// direction e over all rows of the centered data matrix x (Equation 3).
func DatasetCoherence(x *linalg.Dense, e []float64) float64 {
	n, d := x.Dims()
	if d != len(e) {
		panic(fmt.Sprintf("core: DatasetCoherence dimension mismatch %d vs %d", d, len(e)))
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += CoherenceProbability(x.RawRow(i), e)
	}
	return sum / float64(n)
}

// VectorReport summarizes one basis direction against a data set.
type VectorReport struct {
	// Index is the column of the basis matrix this report describes.
	Index int
	// Eigenvalue is the data variance along the direction (mean squared
	// projection of the centered data).
	Eigenvalue float64
	// Coherence is P(D,e), the data-set coherence probability.
	Coherence float64
	// MeanFactor is the average coherence factor over the data set, a
	// resolution-friendly companion to Coherence (which saturates near 1).
	MeanFactor float64
}

// BasisAnalysis holds per-direction reports for a full basis, ordered as the
// basis columns.
type BasisAnalysis struct {
	Reports []VectorReport
}

// analyzeBlockRows is the number of data rows AnalyzeBasis carries through
// its two products at a time: three 256×k blocks of scratch.
const analyzeBlockRows = 256

// AnalyzeBasis evaluates every column of basis against the data matrix x.
// If center is true the column means of x are removed first (the model
// requires centered data); pass false when x is already centered. Basis
// columns are used as given and are expected to be unit vectors (the
// coherence factor is scale-invariant in e, so this is not enforced).
//
// Both sums CoherenceFactor needs are inner products over the original
// dimensions — the projection Σⱼ xⱼeⱼ, and the squared contributions
// Σⱼ (xⱼeⱼ)² = Σⱼ xⱼ²·eⱼ² — so for a block of rows and all directions at
// once they are two matrix products, P = X·Eᵀ and S = (X∘X)·(E∘E)ᵀ with the
// directions as the rows of E, and CF = |P|/√S elementwise (σ·√d = √S).
func AnalyzeBasis(x *linalg.Dense, basis *linalg.Dense, center bool) *BasisAnalysis {
	n, d := x.Dims()
	bd, k := basis.Dims()
	if bd != d {
		panic(fmt.Sprintf("core: AnalyzeBasis basis has %d rows for %d-dimensional data", bd, d))
	}
	work := x
	if center {
		work, _ = stats.Center(x)
	}
	e := basis.T()
	e2 := linalg.NewDense(k, d)
	squareInto(e2, e)
	rows := min(analyzeBlockRows, n)
	x2 := linalg.NewDense(rows, d)
	proj := linalg.NewDense(rows, k)
	sumSq := linalg.NewDense(rows, k)
	sumsCP := make([]float64, k)
	sumsCF := make([]float64, k)
	sumsSq := make([]float64, k)
	for lo := 0; lo < n; lo += rows {
		hi := min(lo+rows, n)
		blk := work.RowSlice(lo, hi)
		x2b, pb, sb := x2.RowSlice(0, hi-lo), proj.RowSlice(0, hi-lo), sumSq.RowSlice(0, hi-lo)
		squareInto(x2b, blk)
		linalg.MulTInto(pb, blk, e)
		linalg.MulTInto(sb, x2b, e2)
		for i := 0; i < hi-lo; i++ {
			srow := sb.RawRow(i)
			for j, p := range pb.RawRow(i) {
				sumsSq[j] += p * p
				if srow[j] == 0 { // σ = 0: a zero point, or no overlap with e
					continue
				}
				cf := math.Abs(p) / math.Sqrt(srow[j])
				sumsCF[j] += cf
				sumsCP[j] += stats.TwoSidedProbability(cf)
			}
		}
	}
	reports := make([]VectorReport, k)
	for j := 0; j < k; j++ {
		reports[j] = VectorReport{
			Index:      j,
			Eigenvalue: sumsSq[j] / float64(n),
			Coherence:  sumsCP[j] / float64(n),
			MeanFactor: sumsCF[j] / float64(n),
		}
	}
	return &BasisAnalysis{Reports: reports}
}

// squareInto writes the elementwise square of src into dst (same shape).
func squareInto(dst, src *linalg.Dense) {
	for i := 0; i < src.Rows(); i++ {
		out := dst.RawRow(i)
		for j, v := range src.RawRow(i) {
			out[j] = v * v
		}
	}
}

// Coherences returns the P(D,e) value of every basis column, in column
// order.
func (b *BasisAnalysis) Coherences() []float64 {
	out := make([]float64, len(b.Reports))
	for i, r := range b.Reports {
		out[i] = r.Coherence
	}
	return out
}

// ContributionHistogram bins the per-dimension contributions of the centered
// point x along e into the given number of bins — the distribution the
// paper's Figure 1 draws for its two illustrative eigenvectors.
func ContributionHistogram(x, e []float64, bins int) *stats.Histogram {
	return stats.FromData(Contributions(x, e), bins)
}

// Package cluster implements the extension the paper sketches in §3.1: for
// data sets whose implicit dimensionality is too high for a single global
// reduction (all eigenvectors have similar coherence probability), a
// generalized projected clustering "may be used in order to decompose the
// data into subsets with low implicit dimensionality and then apply the
// techniques discussed in this paper" per subset (following references [2]
// and [6], local dimensionality reduction).
//
// The package provides the clustering substrate (k-means with k-means++
// seeding) and LocalReduction, which fits an independent PCA — with
// coherence analysis — inside every cluster and answers similarity queries
// by searching the per-cluster subspaces.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// KMeansResult holds a clustering of an n x d point matrix.
type KMeansResult struct {
	// Centroids is a k x d matrix of cluster centers.
	Centroids *linalg.Dense
	// Assign[i] is the cluster of row i.
	Assign []int
	// Sizes[c] is the number of points in cluster c.
	Sizes []int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// KMeansConfig configures KMeans.
type KMeansConfig struct {
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds the Lloyd loop (0 selects 100).
	MaxIterations int
	// Seed drives the k-means++ initialization.
	Seed int64
	// Restarts runs the whole algorithm this many times with different
	// seeds and keeps the lowest-inertia result (0 selects 1).
	Restarts int
}

// KMeans clusters the rows of x with Lloyd's algorithm and k-means++
// seeding.
func KMeans(x *linalg.Dense, cfg KMeansConfig) (*KMeansResult, error) {
	n, _ := x.Dims()
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: K=%d must be >= 1", cfg.K)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("cluster: K=%d exceeds %d points", cfg.K, n)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	var best *KMeansResult
	for r := 0; r < restarts; r++ {
		res := kmeansOnce(x, cfg.K, cfg.MaxIterations, cfg.Seed+int64(r))
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(x *linalg.Dense, k, maxIter int, seed int64) *KMeansResult {
	n, d := x.Dims()
	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(x, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	inertia := 0.0
	iters := 0
	// The assignment step is the per-iteration hot spot: points × centroids
	// squared distances. Run it as one blocked GEMM per iteration through the
	// norm-cache identity d²(x,c) = ‖x‖² + ‖c‖² − 2⟨x,c⟩. Point norms are
	// loop-invariant and the per-point argmin only needs ‖c‖² − 2⟨x,c⟩; ‖x‖²
	// re-enters when accumulating inertia (clamped at 0 against rounding).
	xn := linalg.MulTRowNormsSq(x)
	gram := linalg.NewDense(n, k)
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		changed := false
		inertia = 0
		for c := range sizes {
			sizes[c] = 0
		}
		cn := linalg.MulTRowNormsSq(centroids)
		linalg.MulTInto(gram, x, centroids)
		for i := 0; i < n; i++ {
			grow := gram.RawRow(i)
			bestC, bestS := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if s := cn[c] - 2*grow[c]; s < bestS {
					bestC, bestS = c, s
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
			sizes[bestC]++
			if d2 := xn[i] + bestS; d2 > 0 {
				inertia += d2
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; re-seed any emptied cluster at the point
		// farthest from its centroid.
		next := linalg.NewDense(k, d)
		for i := 0; i < n; i++ {
			linalg.Axpy(1, x.RawRow(i), next.RawRow(assign[i]))
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				far := farthestPoint(x, centroids, assign)
				next.SetRow(c, x.Row(far))
				continue
			}
			linalg.ScaleVec(1/float64(sizes[c]), next.RawRow(c))
		}
		centroids = next
	}
	return &KMeansResult{
		Centroids:  centroids,
		Assign:     assign,
		Sizes:      sizes,
		Inertia:    inertia,
		Iterations: iters,
	}
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(x *linalg.Dense, k int, rng *rand.Rand) *linalg.Dense {
	n, d := x.Dims()
	centroids := linalg.NewDense(k, d)
	first := rng.Intn(n)
	centroids.SetRow(0, x.Row(first))
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		dist[i] = sqDist(x.RawRow(i), centroids.RawRow(0))
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, v := range dist {
			total += v
		}
		var pick int
		if total == 0 {
			pick = rng.Intn(n) // all points coincide with chosen centroids
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, v := range dist {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		centroids.SetRow(c, x.Row(pick))
		for i := 0; i < n; i++ {
			if dd := sqDist(x.RawRow(i), centroids.RawRow(c)); dd < dist[i] {
				dist[i] = dd
			}
		}
	}
	return centroids
}

func farthestPoint(x, centroids *linalg.Dense, assign []int) int {
	far, farD := 0, -1.0
	for i := 0; i < x.Rows(); i++ {
		d := sqDist(x.RawRow(i), centroids.RawRow(assign[i]))
		if d > farD {
			far, farD = i, d
		}
	}
	return far
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Silhouette returns the mean silhouette coefficient of the clustering — a
// standard internal quality measure in [-1, 1]. Clusters of size 1
// contribute 0. O(n²·d); intended for evaluation, not production loops.
func Silhouette(x *linalg.Dense, assign []int, k int) float64 {
	n := x.Rows()
	if n != len(assign) {
		panic(fmt.Sprintf("cluster: %d assignments for %d points", len(assign), n))
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	total := 0.0
	sums := make([]float64, k)
	for i := 0; i < n; i++ {
		for c := range sums {
			sums[c] = 0
		}
		ri := x.RawRow(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[assign[j]] += math.Sqrt(sqDist(ri, x.RawRow(j)))
		}
		own := assign[i]
		if sizes[own] <= 1 {
			continue
		}
		a := sums[own] / float64(sizes[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || sizes[c] == 0 {
				continue
			}
			if v := sums[c] / float64(sizes[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue // single non-empty cluster
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

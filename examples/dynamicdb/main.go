// Dynamicdb demonstrates dimensionality-reduced similarity search over a
// growing database (the setting of the paper's reference [17]): points
// stream in, a covariance accumulator maintains the sufficient statistics
// in O(d²) per insert, and the reduced-space index is refreshed only when
// the transform has drifted — never by re-reading old points.
package main

import (
	"fmt"
	"math"

	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/reduction"
)

func main() {
	// The full "future" database, revealed in batches.
	stream := synthetic.MuskLike(1)
	d := stream.Dims()
	fmt.Printf("streaming %d points of %d dims in batches\n", stream.N(), d)

	acc := reduction.NewCovarianceAccumulator(d)
	var current *reduction.PCA
	var lastRefit []float64 // eigenvalues at the last refit

	const batch = 100
	refits := 0
	for start := 0; start < stream.N(); start += batch {
		end := start + batch
		if end > stream.N() {
			end = stream.N()
		}
		for i := start; i < end; i++ {
			acc.Add(stream.X.RawRow(i))
		}
		if acc.N() < 2*batch {
			continue // warm-up
		}
		// Refresh the transform when the spectrum has drifted by more than
		// 5% since the last refit (or if there is none yet).
		p, err := acc.FitPCA()
		if err != nil {
			panic(err)
		}
		if current == nil || spectrumShift(lastRefit, p.Eigenvalues) > 0.05 {
			current = p
			lastRefit = append([]float64(nil), p.Eigenvalues...)
			refits++
			fmt.Printf("  after %4d points: refit #%d (top eigenvalue %.1f)\n",
				acc.N(), refits, p.Eigenvalues[0])
		}
	}

	// Final quality check: the streamed transform's reduced space matches
	// a from-scratch batch fit.
	batchPCA, err := reduction.FitDataset(stream, reduction.Options{})
	if err != nil {
		panic(err)
	}
	k := 13
	streamed := current.ReduceDataset(stream, current.TopK(reduction.ByEigenvalue, k), "streamed")
	batchRed := batchPCA.ReduceDataset(stream, batchPCA.TopK(reduction.ByEigenvalue, k), "batch")
	fmt.Printf("\n3-NN accuracy in %d-dim reduced space: streamed %.1f%%, batch %.1f%%\n",
		k, 100*eval.DatasetAccuracy(streamed), 100*eval.DatasetAccuracy(batchRed))
	fmt.Printf("transform refits: %d (vs %d batches ingested)\n", refits, (stream.N()+batch-1)/batch)
}

// spectrumShift returns the relative L1 distance between two eigenvalue
// spectra.
func spectrumShift(old, cur []float64) float64 {
	if old == nil {
		return math.Inf(1)
	}
	num, den := 0.0, 0.0
	for i := range old {
		num += math.Abs(old[i] - cur[i])
		den += math.Abs(old[i])
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// Quickstart: the full pipeline in one page — generate a labelled
// high-dimensional data set, fit a studentized PCA with coherence analysis,
// pick components by coherence probability, and compare similarity-search
// quality before and after the aggressive reduction.
package main

import (
	"fmt"

	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/reduction"
)

func main() {
	// A 351-point, 34-dimensional data set with ten latent concepts —
	// the library's stand-in for UCI Ionosphere.
	ds := synthetic.IonosphereLike(1)
	fmt.Println("data:", ds)

	// Fit correlation-matrix PCA (the paper's recommended scaling) and
	// evaluate each eigenvector's coherence probability P(D,e).
	p, err := reduction.FitDataset(ds, reduction.Options{
		Scaling:          reduction.ScalingStudentize,
		ComputeCoherence: true,
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("\ntop components (eigenvalue / coherence probability):")
	for i := 0; i < 8; i++ {
		fmt.Printf("  e%-2d  λ=%-7.3f P(D,e)=%.3f\n", i+1, p.Eigenvalues[i], p.Coherence[i])
	}

	// The paper's selection rule: keep the most coherent directions. The
	// scatter-gap heuristic picks how many.
	ordered := p.Order(reduction.ByCoherence)
	coh := make([]float64, len(ordered))
	for i, idx := range ordered {
		coh[i] = p.Coherence[idx]
	}
	k := reduction.GapCutoff(coh, 2, ds.Dims()/2)
	components := ordered[:k]
	fmt.Printf("\nretaining %d of %d components (%.0f%% of variance)\n",
		k, ds.Dims(), 100*p.EnergyFraction(components))

	reduced := p.ReduceDataset(ds, components, "ionosphere-reduced")

	// Feature-stripped quality: how often do a point's 3 nearest neighbors
	// share its class?
	fullAcc := eval.DatasetAccuracy(ds)
	redAcc := eval.DatasetAccuracy(reduced)
	fmt.Printf("3-NN class-match accuracy: full %.1f%% -> reduced %.1f%%\n",
		100*fullAcc, 100*redAcc)

	// Run one similarity query in the reduced space.
	query := reduced.Point(0)
	neighbors := knn.Search(reduced.X, query, 4, knn.Euclidean{}, 0)
	fmt.Println("\nnearest neighbors of point 0 in the reduced space:")
	for _, nb := range neighbors {
		same := "different class"
		if reduced.Labels[nb.Index] == reduced.Labels[0] {
			same = "same class"
		}
		fmt.Printf("  point %-4d dist=%.3f (%s)\n", nb.Index, nb.Dist, same)
	}
}

// Noisyrescue reproduces the paper's §4.1 scenario interactively: a data set
// whose largest-variance directions are pure noise. Classical
// eigenvalue-ordered reduction keeps exactly the wrong directions;
// coherence-probability ordering identifies the buried concepts and rescues
// search quality.
package main

import (
	"fmt"

	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/reduction"
)

func main() {
	// "Noisy data set A": the Ionosphere analogue with 10 of 34 features
	// replaced by uniform noise of amplitude 6 (variance 3 — larger than
	// any signal dimension's).
	ds, corrupted := synthetic.NoisyDataA(1)
	fmt.Printf("data: %s (corrupted columns: %v)\n", ds, corrupted)

	p, err := reduction.FitDataset(ds, reduction.Options{ComputeCoherence: true})
	if err != nil {
		panic(err)
	}

	fmt.Println("\nspectrum (descending eigenvalue):")
	for i := 0; i < 14; i++ {
		tag := ""
		if p.Coherence[i] < 0.6 {
			tag = "   <- low coherence: noise"
		}
		fmt.Printf("  e%-2d λ=%-6.2f P(D,e)=%.3f%s\n", i+1, p.Eigenvalues[i], p.Coherence[i], tag)
	}
	fmt.Println("the 10 largest eigenvalues are the injected noise; the concepts hide below them")

	for _, ordering := range []struct {
		name string
		o    reduction.Ordering
	}{
		{"eigenvalue ordering (classical)", reduction.ByEigenvalue},
		{"coherence ordering (the paper's rule)", reduction.ByCoherence},
	} {
		fmt.Printf("\naccuracy vs dims retained — %s\n", ordering.name)
		curve := eval.Sweep(ds, p, p.Order(ordering.o), ordering.name, eval.SweepConfig{
			Dims: []int{2, 5, 10, 15, 20, 34},
		})
		for _, pt := range curve.Points {
			bar := ""
			for n := 0; n < int(60*pt.Accuracy); n++ {
				bar += "#"
			}
			fmt.Printf("  %2d dims %5.1f%% |%s\n", pt.Dims, 100*pt.Accuracy, bar)
		}
		opt := curve.Optimal()
		fmt.Printf("  optimum: %.1f%% at %d dims\n", 100*opt.Accuracy, opt.Dims)
	}

	fmt.Println("\ncoherence ordering dominates at every aggressive dimensionality:")
	fmt.Println("the eigenvalue rule spends its budget on noise; the coherence rule on concepts.")
}

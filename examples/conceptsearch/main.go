// Conceptsearch demonstrates the text-retrieval phenomenon that motivates
// the paper (latent semantic indexing, references [7] and [16]): term-space
// similarity search is defeated by synonymy (documents about one topic use
// disjoint vocabularies) and by high-frequency topic-free terms whose counts
// dominate the distance, while an aggressive reduction onto a few coherent
// concept axes recovers topical search.
//
// The corpus is synthetic: each topic owns many small synonym groups
// ("car, sedan, ..." vs "automobile, vehicle, ...") plus topic-common
// context terms that every group co-occurs with — the statistical bridge
// that lets the eigendecomposition merge the groups into one concept. On
// top sits a small set of stopword-like terms that appear everywhere with
// high frequency: they carry most of the variance (so eigenvalue-ordered
// selection wastes its budget on them) but no meaning (so their coherence
// probability is low).
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/reduction"
)

const (
	topics        = 4
	groupsPer     = 25 // synonym groups per topic
	termsPerGroup = 6  // vocabulary of each synonym group
	contextTerms  = 12 // topic-common bridge terms per topic
	stopwords     = 15 // high-frequency topic-free terms
	docs          = 500
	tokensPerDoc  = 60
)

func main() {
	ds := buildCorpus(7)
	fmt.Println("corpus:", ds)
	fmt.Printf("vocabulary: %d topical terms in %d synonym groups, %d context terms, %d stopwords\n",
		topics*groupsPer*termsPerGroup, topics*groupsPer, topics*contextTerms, stopwords)

	// Full-dimensional retrieval: cosine similarity on raw term counts —
	// dominated by the stopword counts.
	fullAcc := eval.PredictionAccuracy(ds.X, ds.Labels, eval.PaperK, knn.Cosine{})

	p, err := reduction.FitDataset(ds, reduction.Options{ComputeCoherence: true})
	if err != nil {
		panic(err)
	}

	fmt.Println("\ntop of the spectrum (eigenvalue / coherence):")
	for i := 0; i < 6; i++ {
		fmt.Printf("  e%-2d λ=%-8.2f P(D,e)=%.3f\n", i+1, p.Eigenvalues[i], p.Coherence[i])
	}

	fmt.Printf("\n3-NN topic-match accuracy (cosine): raw term space (%d dims): %.1f%%\n",
		ds.Dims(), 100*fullAcc)
	dims := []int{2, 4, 8, 16, 32, 64}
	for _, ord := range []struct {
		name string
		o    reduction.Ordering
	}{
		{"eigenvalue-ordered", reduction.ByEigenvalue},
		{"coherence-ordered ", reduction.ByCoherence},
	} {
		curve := eval.Sweep(ds, p, p.Order(ord.o), ord.name, eval.SweepConfig{
			Dims: dims, Metric: knn.Cosine{},
		})
		fmt.Printf("  %s:", ord.name)
		for _, pt := range curve.Points {
			fmt.Printf("  %dd=%.1f%%", pt.Dims, 100*pt.Accuracy)
		}
		opt := curve.Optimal()
		fmt.Printf("   (best %.1f%% at %d dims)\n", 100*opt.Accuracy, opt.Dims)
	}

	// Show one retrieval in the coherent concept space.
	components := p.TopK(reduction.ByCoherence, 8)
	reduced := p.ReduceDataset(ds, components, "concept space")
	queryDoc := 0
	fmt.Printf("\nquery: document %d (topic %d)\n", queryDoc, ds.Labels[queryDoc])
	show := func(space string, x *linalg.Dense) {
		nbs := knn.Search(x, x.Row(queryDoc), 3, knn.Cosine{}, queryDoc)
		fmt.Printf("  %s neighbors:", space)
		for _, nb := range nbs {
			fmt.Printf(" doc%d(topic %d)", nb.Index, ds.Labels[nb.Index])
		}
		fmt.Println()
	}
	show("raw-term", ds.X)
	show("concept ", reduced.X)
	fmt.Println("\nthe stopword variance owns the top eigenvalues but has low coherence;")
	fmt.Println("picking by coherence probability recovers the semantic concepts.")
}

// buildCorpus generates the term-document matrix. Document i belongs to
// topic i%topics and uses synonym group (i/topics)%groupsPer of that topic.
// The vocabulary is laid out as: per-topic synonym groups, per-topic context
// terms, then the stopwords.
func buildCorpus(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	groupBlock := topics * groupsPer * termsPerGroup
	contextBlock := topics * contextTerms
	vocab := groupBlock + contextBlock + stopwords
	x := linalg.NewDense(docs, vocab)
	labels := make([]int, docs)
	for i := 0; i < docs; i++ {
		topic := i % topics
		group := (i / topics) % groupsPer
		labels[i] = topic
		base := (topic*groupsPer + group) * termsPerGroup
		for t := 0; t < tokensPerDoc; t++ {
			var term int
			switch r := rng.Float64(); {
			case r < 0.18:
				// A term from this document's own synonym group.
				term = base + rng.Intn(termsPerGroup)
			case r < 0.30:
				// A topic-common context term (the synonymy bridge).
				term = groupBlock + topic*contextTerms + rng.Intn(contextTerms)
			default:
				// A stopword: frequent everywhere, meaningless. A skewed
				// per-document stopword profile makes the counts bursty, as
				// in real text.
				term = groupBlock + contextBlock + int(float64(stopwords)*rng.Float64()*rng.Float64())
			}
			x.Add(i, term, 1)
		}
	}
	ds, err := dataset.New("synthetic corpus", x, labels)
	if err != nil {
		panic(err)
	}
	return ds
}

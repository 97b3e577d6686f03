package index

import (
	"repro/internal/knn"
)

// Recall is the fraction of the exact neighbor set an approximate answer
// recovered: |approx ∩ exact| / |exact|. With equal k on both sides this is
// the standard recall@k used to judge approximate indexes against an exact
// index's ground truth. An empty exact set is vacuously recalled (1).
func Recall(approx, exact []knn.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	set := make(map[int]bool, len(exact))
	for _, n := range exact {
		set[n.Index] = true
	}
	hits := 0
	for _, n := range approx {
		if set[n.Index] {
			hits++
			delete(set, n.Index) // guard against duplicate indices
		}
	}
	return float64(hits) / float64(len(exact))
}

// MeanRecall averages Recall over paired query workloads.
func MeanRecall(approx, exact [][]knn.Neighbor) float64 {
	if len(approx) != len(exact) {
		panic("index: MeanRecall workload length mismatch")
	}
	if len(exact) == 0 {
		return 1
	}
	sum := 0.0
	for i := range exact {
		sum += Recall(approx[i], exact[i])
	}
	return sum / float64(len(exact))
}

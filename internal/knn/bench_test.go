package knn

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func benchData(n, d int) (*linalg.Dense, []float64) {
	rng := rand.New(rand.NewSource(42))
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return m, q
}

func BenchmarkSearchL2_5000x64(b *testing.B) {
	data, q := benchData(5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(data, q, 3, Euclidean{}, -1)
	}
}

func BenchmarkSearchL1_5000x64(b *testing.B) {
	data, q := benchData(5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(data, q, 3, Manhattan{}, -1)
	}
}

func BenchmarkSearchFractional_5000x64(b *testing.B) {
	data, q := benchData(5000, 64)
	m := NewMinkowski(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Search(data, q, 3, m, -1)
	}
}

func BenchmarkEuclideanDistance256(b *testing.B) {
	data, q := benchData(2, 256)
	row := data.RawRow(0)
	m := Euclidean{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(row, q)
	}
}

// benchSelfJoin is eval.DatasetAccuracy's search at reduce_pipeline's shape:
// leave-one-out k = 3 over 6598 points reduced to 16 dimensions.
func benchSelfJoin(b *testing.B, queries func(x *linalg.Dense) *linalg.Dense) {
	x, _ := benchData(6598, 16)
	q := queries(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchSetBatch(x, q, 3, Euclidean{}, true)
	}
}

// The same answers from the two schedules: the mirrored grid multiplies
// each unordered pair once, the two-matrix schedule (selected by handing it
// a copy) twice.
func BenchmarkSearchSetBatchSelf6598x16(b *testing.B) {
	benchSelfJoin(b, func(x *linalg.Dense) *linalg.Dense { return x })
}

func BenchmarkSearchSetBatchTwoMatrix6598x16(b *testing.B) {
	benchSelfJoin(b, (*linalg.Dense).Clone)
}

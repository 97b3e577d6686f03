package index_test

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/linalg"
)

// Every index answers the same exact k-NN query and reports how much of the
// database it had to touch.
func ExampleIndex() {
	data := linalg.FromRows([][]float64{
		{0, 0}, {1, 0}, {0, 1}, {10, 10}, {11, 10}, {10, 11},
	})
	kd := index.BuildKDTree(data, 2)
	res, stats := kd.KNN([]float64{0.2, 0.1}, 2)
	fmt.Printf("nearest: %d and %d (pruned: %v)\n",
		res[0].Index, res[1].Index, stats.PointsScanned < data.Rows())
	// Output: nearest: 0 and 1 (pruned: true)
}

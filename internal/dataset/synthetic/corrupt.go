package synthetic

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// Corrupt implements the paper's noisy-data-set construction (§4.1): it
// returns a copy of d in which the features at the given column indices are
// replaced by values drawn uniformly from [0, amplitude). The paper's
// "noisy data set A" replaces 10 of Ionosphere's 34 dimensions with uniform
// noise of amplitude a = 6; "noisy data set B" does the same to 10 of
// Arrhythmia's 279 dimensions.
func Corrupt(d *dataset.Dataset, cols []int, amplitude float64, seed int64) *dataset.Dataset {
	if amplitude <= 0 {
		panic(fmt.Sprintf("synthetic: Corrupt amplitude=%v must be > 0", amplitude))
	}
	seen := make(map[int]bool, len(cols))
	for _, j := range cols {
		if j < 0 || j >= d.Dims() {
			panic(fmt.Sprintf("synthetic: Corrupt column %d out of range [0,%d)", j, d.Dims()))
		}
		if seen[j] {
			panic(fmt.Sprintf("synthetic: Corrupt duplicate column %d", j))
		}
		seen[j] = true
	}
	// The clone is the last use of d, and the noise is drawn in a frame of
	// its own. The draw loop makes no call that checks for preemption, so a
	// collection stops it by signal and scans the stopped frame
	// conservatively: a stale slot holding d there would keep d's matrix
	// for one more cycle. Whether that happened used to decide, run to run,
	// whether the benchmark's reduce_pipeline read 12.5 or 16.5 MB rss_mb
	// (EXPERIMENTS.md, "Half the cost of a generated row", steadiness pass).
	name := d.Name + " (corrupted)"
	out := d.Clone()
	out.Name = name
	overwriteUniform(out.X, cols, amplitude, seed)
	return out
}

// overwriteUniform replaces the given columns of x, row by row, by draws
// from U[0, amplitude) of the stream seeded with seed. It is kept out of
// line so that its frame, not Corrupt's, is the one a preempting signal
// stops (see Corrupt).
//
//go:noinline
func overwriteUniform(x *linalg.Dense, cols []int, amplitude float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < x.Rows(); i++ {
		row := x.RawRow(i)
		for _, j := range cols {
			row[j] = rng.Float64() * amplitude
		}
	}
}

// CorruptRandom replaces `count` randomly chosen distinct dimensions with
// uniform noise of the given amplitude and returns the corrupted data set
// together with the chosen column indices (sorted by choice order).
func CorruptRandom(d *dataset.Dataset, count int, amplitude float64, seed int64) (*dataset.Dataset, []int) {
	if count <= 0 || count > d.Dims() {
		panic(fmt.Sprintf("synthetic: CorruptRandom count=%d out of range (0,%d]", count, d.Dims()))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(d.Dims())[:count]
	cols := append([]int(nil), perm...)
	// Use a distinct stream for the noise so the column choice and the
	// noise values are independently reproducible.
	return Corrupt(d, cols, amplitude, seed+1), cols
}

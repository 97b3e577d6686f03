package synthetic

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource is math/rand's own source with a count of the outputs
// drawn and the first output of the current NormFloat64.
type countingSource struct {
	rand.Source64
	n     int
	first uint64
}

func (c *countingSource) Uint64() uint64 {
	x := c.Source64.Uint64()
	if c.n == 0 {
		c.first = x
	}
	c.n++
	return x
}

func (c *countingSource) Int63() int64 { return int64(c.Uint64() & rngMask) }

// TestNormalSourceMatchesMathRand holds normalSource to
// rand.New(rand.NewSource(seed)) draw for draw: runs of fill of random
// length interleaved with single Uint64 and Float64 draws, ten million
// values per seed, past many refills. A NormFloat64 that takes more than
// one output left the fast path; the strip of its first output says which
// slow branch it took, the base-strip tail or the wedge test, and each must
// be taken.
func TestNormalSourceMatchesMathRand(t *testing.T) {
	const draws = 10_000_000
	buf := make([]float64, 300)
	for _, seed := range []int64{0, 1, 2, -1, 1 << 40} {
		cs := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(cs)
		got := newNormalSource(seed)
		pattern := rand.New(rand.NewSource(seed + 7))
		var tails, wedges, n int
		for n < draws {
			switch pattern.Intn(4) {
			case 0:
				if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, n, g, w)
				}
				n++
				continue
			case 1:
				if g, w := got.Float64(), ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, n, g, w)
				}
				n++
				continue
			}
			run := buf[:pattern.Intn(len(buf)+1)]
			got.fill(run)
			for i, g := range run {
				cs.n = 0
				w := ref.NormFloat64()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v (%#x), math/rand %v (%#x)",
						seed, n+i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
				if cs.n > 1 {
					if int32(uint32(cs.first>>31))&0x7F == 0 {
						tails++
					} else {
						wedges++
					}
				}
			}
			n += len(run)
		}
		if tails == 0 || wedges == 0 {
			t.Fatalf("seed %d: %d base-strip tails and %d wedge tests in %d draws; both slow branches must run", seed, tails, wedges, n)
		}
		t.Logf("seed %d: %d draws, %d base-strip tails, %d wedge tests", seed, n, tails, wedges)
	}
}

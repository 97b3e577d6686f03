package stats_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset/synthetic"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// covarianceHashes are the SHA-256 of CovarianceMatrix(MuskLike(1))'s
// entries (little-endian float64 bits, row-major) at each GOMAXPROCS, as
// recorded before AtA's ZMM syrk kernel. They differ from one another:
// AtA reduces per-worker partial sums, so the covariance's last bits depend
// on the core count (ROADMAP item 13(c)). This test records that state —
// each count keeps its own bits through any change to the kernels — and
// is the test to update, with one hash for every count, when item 13(c)
// makes the bits independent of it.
var covarianceHashes = map[int]string{
	1: "cbfc20fbbed113fcef9234e93d782dc494cb08cef8ed279ddc0c6e3a6f9242d5",
	2: "b7aa853cf5b5f5ac30d5ed8dfebd4eb3dc2712df6f2c114c0ede31c44bd56fea",
	3: "6705dab326fe696168559c69216caa58f58012fa17e23ce60d16fa9958613436",
	8: "fdd42aa0f739d0bf8f290b2a9c43994f47e11461d5ec7d3fbae3678f0539b01a",
}

// atAFuses reports whether AtA's suffix steps are fused multiply-adds, the
// arithmetic the hashes were recorded with: one 16-wide entry whose two
// steps give 2⁻⁶⁰ fused and 0 with the product rounded first.
func atAFuses() bool {
	a := linalg.NewDense(2, 16)
	u := 1 + 0x1p-30
	a.Set(0, 0, 1)
	a.Set(0, 1, -(1 + 0x1p-29))
	a.Set(1, 0, u)
	a.Set(1, 1, u)
	return linalg.AtA(a).At(0, 1) != 0
}

func TestCovarianceBitsPerProcs(t *testing.T) {
	if !atAFuses() {
		t.Skip("AtA runs unfused steps on this machine (no FMA): the recorded hashes are of the fused covariance (ROADMAP item 13(d))")
	}
	x := synthetic.MuskLike(1).X
	for _, p := range []int{1, 2, 3, 8} {
		saved := runtime.GOMAXPROCS(p)
		c := stats.CovarianceMatrix(x)
		runtime.GOMAXPROCS(saved)
		h := sha256.New()
		var b [8]byte
		for _, v := range c.RawData() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != covarianceHashes[p] {
			t.Errorf("GOMAXPROCS=%d: covariance hash %s, recorded %s", p, got, covarianceHashes[p])
		}
	}
}

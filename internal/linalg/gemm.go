package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// This file is the compute substrate of the batch-distance engine: the two
// matrix products similarity search needs — A·Bᵀ between row-major point
// sets (queries × data, points × centroids, data × basis) and the symmetric
// AᵀA of a centered data matrix (covariance).
//
// A·Bᵀ is defined, not merely computed: every output element is the
// sequential chain
//
//	acc = +0;  acc = fma(a[i][t], b[j][t], acc)  for t = 0 … k−1
//
// with one rounding per step. The value of out[i][j] therefore depends on
// row i of a and row j of b and on nothing else — not on where the element
// falls in a register tile, on the ragged edges, on how rows were split
// among workers, or on which implementation ran. There are three, and they
// agree bit for bit wherever the hardware has FMA:
//   - the AVX-512 micro-kernel (kernel_mult_amd64.s, mulTPanelAVX512): an
//     8×16 ZMM tile over a k-major packed 16-row panel of b, k in slabs of
//     256 so the panel stays on the worker's frame; chosen when the CPU
//     has AVX512F and the OS saves opmask and ZMM state;
//   - the AVX2 micro-kernel (mulTPanelAVX2): a 4×8 YMM tile over an 8-row
//     panel, on CPUs with AVX2 and FMA but no AVX-512;
//   - the portable chain below, everywhere else.
// On amd64 without FMA the chain is the unfused acc + a·b (two roundings
// per step, still position-independent): software math.FMA is correct but
// ~100× slower than the multiply-add it replaces.

// MulT returns a · bᵀ for an m×k matrix a and an n×k matrix b (both row
// major), as a new m×n matrix: out[i][j] is the product chain of a.Row(i)
// and b.Row(j). Row panels run in parallel on up to runtime.GOMAXPROCS(0)
// goroutines.
func MulT(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.rows)
	return MulTInto(out, a, b)
}

// MulTInto computes a · bᵀ into dst (which must be a.Rows() × b.Rows() and
// must not share storage with a or b) and returns dst. Its only allocation
// is one packed panel of b per worker, released on return, and only on the
// AVX2 path past 256 columns (9·k float64); the AVX-512 path and narrower
// operands keep it on the worker's frame. So per-block output scratch can
// be reused across calls.
func MulTInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulT dimension mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("linalg: MulTInto dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	if a.cols == 0 { // the empty chain
		clear(dst.data[:dst.rows*dst.cols])
		return dst
	}
	// Row panels in parallel. A chunk is a multiple of mulTRowGrain rows:
	// whole register tiles, and enough of them that each worker's own
	// packing of b (one pass over b per worker) stays a few percent of its
	// FMAs.
	workers := min(runtime.GOMAXPROCS(0), (a.rows+mulTRowGrain-1)/mulTRowGrain)
	if workers <= 1 {
		mulTRows(dst, a, b, 0, a.rows)
		return dst
	}
	chunk := (a.rows + workers - 1) / workers
	chunk = (chunk + mulTRowGrain - 1) / mulTRowGrain * mulTRowGrain
	var wg sync.WaitGroup
	for lo := 0; lo < a.rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulTRows(dst, a, b, lo, hi)
		}(lo, min(lo+chunk, a.rows))
	}
	wg.Wait()
	return dst
}

// mulTRowGrain is the row granularity of MulTInto's worker split.
const mulTRowGrain = 32

// fmaStep is one link of the product chain: fused where the hardware fuses
// (see hasFMA), else a rounded product added with a second rounding. The
// conversion keeps a compiler that may contract x*y+z from doing so.
func fmaStep(x, y, acc float64) float64 {
	if hasFMA {
		return math.FMA(x, y, acc)
	}
	return acc + float64(x*y)
}

// mulTRowsChain computes output rows [lo, hi) of a·bᵀ straight from the
// definition, on unpacked rows: the portable twin of the assembly kernel.
// One a row runs against four b rows at a time so four chains are in flight.
func mulTRowsChain(dst, a, b *Dense, lo, hi int) {
	k := a.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		brows := b.data[:b.rows*k]
		for len(orow) >= 4 && len(brows) >= 4*k {
			b0, b1, b2, b3 := brows[:k], brows[k:][:k], brows[2*k:][:k], brows[3*k:][:k]
			var s0, s1, s2, s3 float64
			for t, av := range arow {
				s0 = fmaStep(av, b0[t], s0)
				s1 = fmaStep(av, b1[t], s1)
				s2 = fmaStep(av, b2[t], s2)
				s3 = fmaStep(av, b3[t], s3)
			}
			orow[0], orow[1], orow[2], orow[3] = s0, s1, s2, s3
			orow, brows = orow[4:], brows[4*k:]
		}
		for j := range orow {
			orow[j] = chainDot(arow, brows[j*k:][:k])
		}
	}
}

// chainDot is the product chain of two equal-length vectors.
func chainDot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for t, av := range a {
		s = fmaStep(av, b[t], s)
	}
	return s
}

// AtA returns aᵀ·a for an n×k matrix a as a k×k matrix that is exactly
// symmetric by construction (the lower triangle is mirrored from the
// computed upper triangle, so no post-hoc symmetrization is needed). Row
// panels accumulate per-worker partial sums that are reduced in worker
// order, so the result is deterministic for a fixed GOMAXPROCS. Within a
// panel each entry is the row-order sum of its rows' products, one suffix
// axpy per row (ataPanel's definition). Where the CPU has AVX-512 a ZMM
// syrk kernel computes all but the last asmMinLen − 1 output rows in 8×16
// register tiles over 256-row slabs (ataRowsAVX512); elsewhere ataPanel
// runs four rows per pass over the accumulator (axpy4Unitary). Both are
// bit-identical to one axpy per row.
func AtA(a *Dense) *Dense {
	n, k := a.rows, a.cols
	out := NewDense(k, k)
	workers := runtime.GOMAXPROCS(0)
	// Each worker owns a k×k accumulator; don't spawn more than the row
	// count (or anything for small inputs) can pay for.
	if maxW := n / 64; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		ataRows(a, out.data, 0, n)
	} else {
		partials := make([][]float64, workers)
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				buf := make([]float64, k*k)
				ataRows(a, buf, lo, hi)
				partials[w] = buf
			}(w, lo, hi)
		}
		wg.Wait()
		for _, buf := range partials {
			if buf == nil {
				continue
			}
			for i := 0; i < k; i++ {
				Axpy(1, buf[i*k+i:(i+1)*k], out.data[i*k+i:(i+1)*k])
			}
		}
	}
	// Mirror the upper triangle into the lower.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out.data[j*k+i] = out.data[i*k+j]
		}
	}
	return out
}

// ataPanel accumulates the upper triangle of Σ_{i∈[lo,hi)} rowᵢ·rowᵢᵀ into
// acc (a k×k row-major buffer). Its definition is one suffix axpy per
// (row, leading index j) with a non-zero leading element, rows in order:
// acc[j][j:] += row[j]·row[j:]. Four rows at a time share one pass over
// each acc row (axpy4Unitary): every element still takes the four rows'
// steps in row order, so the bits are the definition's. A leading index
// where any of the four leading elements is zero goes row by row, so the
// zero skip stays exact (0·Inf is NaN, not nothing). It is AtA's worker
// body off AVX-512, and the portable twin of the syrk kernel.
func ataPanel(a *Dense, acc []float64, lo, hi int) {
	k := a.cols
	rows := a.data[lo*k : hi*k]
	for ; len(rows) >= 4*k; rows = rows[4*k:] {
		r0, r1, r2, r3 := rows[:k], rows[k:2*k], rows[2*k:3*k], rows[3*k:4*k]
		for j, v0 := range r0 {
			v1, v2, v3 := r1[j], r2[j], r3[j]
			y := acc[j*k+j : (j+1)*k]
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				axpy4Unitary(v0, v1, v2, v3, r0[j:], r1[j:], r2[j:], r3[j:], y)
				continue
			}
			for _, r := range [4][]float64{r0, r1, r2, r3} {
				if r[j] != 0 {
					axpyUnitary(r[j], r[j:], y)
				}
			}
		}
	}
	for ; len(rows) >= k; rows = rows[k:] {
		row := rows[:k]
		for j, v := range row {
			if v == 0 {
				continue
			}
			axpyUnitary(v, row[j:], acc[j*k+j:(j+1)*k])
		}
	}
}

// RowNormsSq returns ‖row‖² for every row of m as Dot(row, row): the norm
// that pairs with Dot. A scan that forms D²(q,x) = ‖q‖² + ‖x‖² − 2⟨q,x⟩
// with ⟨q,x⟩ from Dot (serve's dense shards, the LSH rescoring) must take
// its norms from here, so that the three terms of an identical pair carry
// the same rounding and cancel to exactly zero.
func RowNormsSq(m *Dense) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		out[i] = dotUnitary(row, row)
	}
	return out
}

// MulTRowNormsSq returns ‖row‖² for every row of m as the product chain of
// the row with itself — the diagonal of MulT(m, m): the norm that pairs
// with MulT/MulTInto. The batch engine (PairwiseSq, SearchSetBatch, k-means
// assignment) must take its norms from here for the same reason RowNormsSq
// exists for Dot: with ⟨x,x⟩ and ‖x‖² on the same chain, D² of identical
// rows is exactly zero and duplicate rows give bit-equal distances.
func MulTRowNormsSq(m *Dense) []float64 {
	out := make([]float64, m.rows)
	k := m.cols
	rows := m.data[:m.rows*k]
	dst := out
	// Four rows at a time: the chain is sequential in t, so independent
	// rows are what keeps the FMA pipeline busy.
	for len(dst) >= 4 && len(rows) >= 4*k {
		r0, r1, r2, r3 := rows[:k], rows[k:][:k], rows[2*k:][:k], rows[3*k:][:k]
		var s0, s1, s2, s3 float64
		for t, v := range r0 {
			s0 = fmaStep(v, v, s0)
			s1 = fmaStep(r1[t], r1[t], s1)
			s2 = fmaStep(r2[t], r2[t], s2)
			s3 = fmaStep(r3[t], r3[t], s3)
		}
		dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
		dst, rows = dst[4:], rows[4*k:]
	}
	for i := range dst {
		row := rows[i*k:][:k]
		dst[i] = chainDot(row, row)
	}
	return out
}

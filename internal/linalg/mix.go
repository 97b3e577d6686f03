package linalg

import "fmt"

// MixRow is the latent-factor generator's row kernel: dst[dd] is the chain
//
//	acc = +0; acc = acc + wt[j·d+dd]·z[j] for j = 0 … k−1; (acc + eps[dd]·sigma)·scales[dd]
//
// with d = len(dst), k = len(z) and wt the k×d mixing matrix Wᵀ, one concept
// per row. Every product and sum is rounded on its own (never fused), in
// that order, so the row is the same bits on every platform and path. On
// amd64 with AVX2 an assembly kernel takes four elements per register and
// holds them across all k concepts; mixRowGeneric takes the d mod 4 tail
// and every element elsewhere.
func MixRow(dst, wt, z, eps []float64, sigma float64, scales []float64) {
	d := len(dst)
	if len(wt) != len(z)*d || len(eps) != d || len(scales) != d {
		panic(fmt.Sprintf("linalg: MixRow dims: dst %d, wt %d for %d concepts, eps %d, scales %d",
			d, len(wt), len(z), len(eps), len(scales)))
	}
	mixRowUnitary(dst, wt, z, eps, sigma, scales)
}

// mixRowGeneric is MixRow's portable twin over the columns of dst, where
// concept j's row of Wᵀ starts at wt[j·ldw]. It walks the row concept-outer,
// four concepts per pass, so the len(dst) chains advance together and the
// loop is bound by throughput, not by one chain's latency; each element
// still adds its concepts in order. The float64 conversions round every
// product, which keeps a compiler that fuses from contracting the chain.
func mixRowGeneric(dst, wt []float64, ldw int, z, eps []float64, sigma float64, scales []float64) {
	n := len(dst)
	clear(dst)
	j := 0
	for ; j+4 <= len(z); j += 4 {
		w0, w1 := wt[j*ldw:][:n], wt[(j+1)*ldw:][:n]
		w2, w3 := wt[(j+2)*ldw:][:n], wt[(j+3)*ldw:][:n]
		z0, z1, z2, z3 := z[j], z[j+1], z[j+2], z[j+3]
		for dd, v := range dst {
			v += float64(w0[dd] * z0)
			v += float64(w1[dd] * z1)
			v += float64(w2[dd] * z2)
			v += float64(w3[dd] * z3)
			dst[dd] = v
		}
	}
	for ; j < len(z); j++ {
		w, zj := wt[j*ldw:][:n], z[j]
		for dd, v := range dst {
			dst[dd] = v + float64(w[dd]*zj)
		}
	}
	eps, scales = eps[:n], scales[:n]
	for dd, v := range dst {
		dst[dd] = (v + float64(eps[dd]*sigma)) * scales[dd]
	}
}

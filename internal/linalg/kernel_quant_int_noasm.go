//go:build !amd64

package linalg

func dotQ15U8Unitary(u []uint16, c []uint8) int64 { return dotQ15U8Generic(u, c) }

func dotQ15U8x8Unitary(u []uint16, rows []uint8, stride int, out *[8]int64) {
	dotQ15U8x8Generic(u, rows, stride, out)
}

func prefixBoundsUnitary(q *PrefixQuery, rows []uint8, snorm []float32, csum, csumSuf []uint32, bound float64, lbs []float64, mask []uint64) {
	prefixBoundsGeneric(q, rows, snorm, csum, csumSuf, bound, lbs, mask, 0)
}

//go:build amd64

package linalg

// Prefetch hints that the cache lines under b will be read soon, so a
// caller can start a cold row's misses one step of work before its reads.
// It touches only addresses inside b, never faults a page in, writes
// nothing and returns at once; an empty b is a no-op. The body is a
// PREFETCHT0 line loop in kernel_prefetch_amd64.s.
//
//go:noescape
func Prefetch(b []uint8)

// PrefetchF64 is Prefetch over the bytes of f.
//
//go:noescape
func PrefetchF64(f []float64)

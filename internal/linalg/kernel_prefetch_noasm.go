//go:build !amd64

package linalg

// Prefetch is a no-op off amd64: a hint, it changes no result.
func Prefetch(b []uint8) {}

// PrefetchF64 is a no-op off amd64, like Prefetch.
func PrefetchF64(f []float64) {}

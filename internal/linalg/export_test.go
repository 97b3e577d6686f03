package linalg

// The oracle comparison of eigen_test.go, for the external test package,
// which can import the data generators (they import linalg).
var (
	DiffEigenBits = diffEigenBits
	OracleSizes   = oracleSizes
)

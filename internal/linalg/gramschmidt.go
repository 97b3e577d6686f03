package linalg

// GramSchmidt orthonormalizes the columns of a using modified Gram-Schmidt
// with re-orthogonalization, returning a matrix with orthonormal columns
// spanning the same space. Columns that are (numerically) linearly dependent
// on earlier ones are dropped, so the result may have fewer columns.
func GramSchmidt(a *Dense) *Dense {
	m, n := a.Dims()
	cols := make([][]float64, 0, n)
	for j := 0; j < n; j++ {
		v := a.Col(j)
		orig := Norm2(v)
		if orig == 0 {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			for _, u := range cols {
				Axpy(-Dot(u, v), u, v)
			}
		}
		if Norm2(v) < 1e-12*orig {
			continue // linearly dependent
		}
		Normalize(v)
		cols = append(cols, v)
	}
	if len(cols) == 0 {
		panic("linalg: GramSchmidt: all columns are zero")
	}
	out := NewDense(m, len(cols))
	for j, v := range cols {
		out.SetCol(j, v)
	}
	return out
}

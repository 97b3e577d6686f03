package synthetic

import (
	"math"
	"testing"
)

func streamTestConfig() LatentFactorConfig {
	c := MuskLikeConfig(41)
	c.N = 257 // not a multiple of Classes, exercises the label cycle
	c.Dims = 23
	return c
}

// TestRowStreamMatchesGenerate pins the contract that makes two-pass store
// builds sound: the streamed rows are bit-identical to the materialized
// matrix for the same config.
func TestRowStreamMatchesGenerate(t *testing.T) {
	c := streamTestConfig()
	ds, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		row, label := st.Next()
		if label != ds.Labels[i] {
			t.Fatalf("row %d: label %d, want %d", i, label, ds.Labels[i])
		}
		want := ds.X.RawRow(i)
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d dim %d: %v != %v", i, j, row[j], want[j])
			}
		}
	}
}

// TestRowStreamReset verifies that a second pass replays identical rows.
func TestRowStreamReset(t *testing.T) {
	c := streamTestConfig()
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	first := make([][]float64, c.N)
	for i := range first {
		row, _ := st.Next()
		first[i] = append([]float64(nil), row...)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		row, _ := st.Next()
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(first[i][j]) {
				t.Fatalf("after Reset, row %d dim %d: %v != %v", i, j, row[j], first[i][j])
			}
		}
	}
}

// TestRowStreamExhaustionPanics pins the finite-stream contract.
func TestRowStreamExhaustionPanics(t *testing.T) {
	c := streamTestConfig()
	st, err := NewRowStream(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		st.Next()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next past N did not panic")
		}
	}()
	st.Next()
}

func TestRowStreamRejectsInvalidConfig(t *testing.T) {
	c := streamTestConfig()
	c.Classes = 1
	if _, err := NewRowStream(c); err == nil {
		t.Fatal("invalid config accepted")
	}
}

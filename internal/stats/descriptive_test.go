package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSumVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Sum(xs); got != 40 {
		t.Fatalf("Sum = %v, want 40", got)
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Mean":   func() { Mean(nil) },
		"MinMax": func() { MinMax(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestMinMaxMedianQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	min, max := MinMax(xs)
	if min != 1 || max != 9 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
}

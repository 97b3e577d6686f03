package stats

import (
	"fmt"
	"math"
)

// Histogram bins values into uniform-width buckets over [Min, Max]. Values
// outside the range are clamped into the first or last bin. It backs the
// paper's Figure 1 style contribution-distribution plots.
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram creates a histogram with the given number of bins spanning
// [min, max]. Panics if bins <= 0 or max <= min.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram bins=%d", bins))
	}
	if !(max > min) {
		panic(fmt.Sprintf("stats: NewHistogram needs max > min, got [%v,%v]", min, max))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records a value.
func (h *Histogram) Add(x float64) {
	h.Counts[h.binOf(x)]++
	h.total++
}

// AddAll records every value in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

func (h *Histogram) binOf(x float64) int {
	if math.IsNaN(x) {
		panic("stats: Histogram.Add of NaN")
	}
	w := (h.Max - h.Min) / float64(len(h.Counts))
	b := int((x - h.Min) / w)
	if b < 0 {
		return 0
	}
	if b >= len(h.Counts) {
		return len(h.Counts) - 1
	}
	return b
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// recorded values: the center of the first bin at which the cumulative count
// reaches q·Total. It panics on an empty histogram or a q outside [0, 1].
// The estimate's resolution is one bin width, which is what makes a
// fixed-bucket histogram a bounded-memory percentile tracker for serving
// latencies (p50/p99 over millions of requests in O(bins) space).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		panic("stats: Histogram.Quantile of empty histogram")
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Histogram.Quantile q=%v outside [0,1]", q))
	}
	target := q * float64(h.total)
	cum := 0
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= target && cum > 0 {
			return h.BinCenter(i)
		}
	}
	// Reachable only for q so close to 1 that rounding pushed the target
	// past the final cumulative count: answer the last non-empty bin.
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			return h.BinCenter(i)
		}
	}
	return h.BinCenter(len(h.Counts) - 1)
}

// FromData builds a histogram over the range of xs with the given bin count.
func FromData(xs []float64, bins int) *Histogram {
	min, max := MinMax(xs)
	//drlint:ignore floatcmp exact degenerate-data check: only an exactly constant sample needs an artificial range
	if min == max {
		// Degenerate data: widen the range so the histogram is valid.
		min -= 0.5
		max += 0.5
	}
	h := NewHistogram(min, max, bins)
	h.AddAll(xs)
	return h
}

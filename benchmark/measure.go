package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op kinds of one closed-loop sample. Every workload has a primary op (the
// k-NN read, or one pipeline run); only mutate_mix issues the other two.
const (
	opPrimary uint8 = iota
	opInsert
	opDelete
)

// sample is one completed operation as its client saw it. lat is the raw
// client-observed duration; a and b carry the layer's own public timings of
// the same op: Result.Wait/Result.Total on the serve workloads, the Fit and
// ReduceDataset stage times on reduce_pipeline. key names the op's input
// among the workload's inputs (the query's row; 0 where there is one input):
// while the data does not change, ops with one key repeat the same work.
type sample struct {
	kind uint8
	key  uint32
	lat  int64
	a, b int64
}

// sampleCap bounds one client's sample log for a whole run. The slices are
// allocated once so appends never grow them inside a timed window; a client
// that fills its log ends its window early instead of reallocating.
const sampleCap = 1 << 17

// opLog is one client's private record: its samples, its failure accounting
// and, during a traced window only, its span buffer.
type opLog struct {
	samples   []sample
	attempted int
	failed    int
	spans     *spanBuf
	nextOp    uint32
}

func newOpLog() *opLog { return &opLog{samples: make([]sample, 0, sampleCap)} }

// done records one finished op.
func (l *opLog) done(s sample, failed bool) {
	l.attempted++
	if failed {
		l.failed++
	}
	if len(l.samples) < cap(l.samples) {
		l.samples = append(l.samples, s)
	}
}

// client is one closed-loop caller: step issues exactly one operation,
// waits for its reply and records it in the client's log.
type client interface {
	step(ctx context.Context)
	log() *opLog
}

// window is the outcome of one timed closed-loop interval.
type window struct {
	// rate is Σ_clients ops/elapsed: every client stops after the op that
	// crosses the deadline and is charged its own elapsed time, so a slow
	// op at the window edge neither truncates nor pads the count.
	rate float64
	// lo and hi index each client's samples recorded in this window.
	lo, hi []int
	wall   time.Duration
}

// runWindow drives every client in a closed loop for d. Clients keep their
// state across windows; with spans non-nil the window is traced.
func runWindow(ctx context.Context, cs []client, d time.Duration, spans []*spanBuf) window {
	w := window{lo: make([]int, len(cs)), hi: make([]int, len(cs))}
	rates := make([]float64, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cs[i]
			l := c.log()
			if spans != nil {
				l.spans = spans[i]
			}
			w.lo[i] = len(l.samples)
			before := l.attempted
			t0 := time.Now()
			for {
				c.step(ctx)
				if time.Since(t0) >= d || len(l.samples) == cap(l.samples) || ctx.Err() != nil {
					break
				}
			}
			rates[i] = float64(l.attempted-before) / time.Since(t0).Seconds()
			w.hi[i] = len(l.samples)
			l.spans = nil
		}(i)
	}
	wg.Wait()
	w.wall = time.Since(start)
	for _, r := range rates {
		w.rate += r
	}
	return w
}

// medianRate and bestRate are the middle and the highest throughput among
// the windows.
func medianRate(ws []window) float64 { return median(rates(ws)) }

func bestRate(ws []window) float64 {
	_, hi := minMax(rates(ws))
	return hi
}

// rates lists the windows' throughputs.
func rates(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.rate
	}
	return out
}

// collect gathers one field of every sample of the wanted kinds recorded in
// the given windows, sorted ascending.
func collect(cs []client, ws []window, field func(sample) int64, kinds ...uint8) []int64 {
	var out []int64
	for _, w := range ws {
		for i, c := range cs {
			for _, s := range c.log().samples[w.lo[i]:w.hi[i]] {
				for _, k := range kinds {
					if s.kind == k {
						out = append(out, field(s))
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fieldLat(s sample) int64 { return s.lat }
func fieldA(s sample) int64   { return s.a }
func fieldB(s sample) int64   { return s.b }

// percentile returns the nearest-rank q-quantile of an ascending slice and
// how many samples lie beyond it. A percentile is only resolved — worth
// printing — when at least minBeyond samples lie beyond it.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

const minBeyond = 10

// resolved is the q-quantile of an ascending slice when at least minBeyond
// samples lie beyond it. With fewer it is the highest quantile that does have
// minBeyond samples beyond it, but never less than the median: a p95 taken
// from a dozen ops is the slowest op, which measures the sandbox's hiccups.
func resolved(sorted []int64, q float64) int64 {
	v, beyond := percentile(sorted, q)
	if beyond >= minBeyond {
		return v
	}
	n := len(sorted)
	v, _ = percentile(sorted, max(0.5, float64(n-minBeyond)/float64(n)))
	return v
}

// median returns the middle value (mean of the two middle values for an even
// count) of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// pctStat is a percentile over all given windows with its spread: the same
// percentile over the first and over the second half of the windows.
type pctStat struct {
	q             float64
	value, lo, hi float64 // in the unit the caller scales to
	samples       int
}

// halves is a statistic's spread inside one run: its value over the first
// and over the second half of the windows, lower one first.
func halves(ws []window, stat func([]window) float64) (lo, hi float64) {
	if len(ws) < 2 {
		v := stat(ws)
		return v, v
	}
	lo, hi = stat(ws[:len(ws)/2]), stat(ws[len(ws)/2:])
	return min(lo, hi), max(lo, hi)
}

// windowPercentile computes the q-quantile of one sample field over every
// window together. scale converts nanoseconds to the reported unit.
func windowPercentile(cs []client, ws []window, field func(sample) int64, q, scale float64, kinds ...uint8) pctStat {
	all := collect(cs, ws, field, kinds...)
	st := pctStat{q: q, value: float64(resolved(all, q)) / scale, samples: len(all)}
	st.lo, st.hi = halves(ws, func(h []window) float64 {
		return float64(resolved(collect(cs, h, field, kinds...), q)) / scale
	})
	return st
}

// undisturbed returns, for every distinct input among the primary ops of the
// given windows, the fastest of its repetitions, ascending.
func undisturbed(cs []client, ws []window) []int64 {
	var best []int64 // by key; 0 where the key was never asked
	for i, c := range cs {
		for _, w := range ws {
			for _, s := range c.log().samples[w.lo[i]:w.hi[i]] {
				if s.kind != opPrimary {
					continue
				}
				for int(s.key) >= len(best) {
					best = append(best, 0)
				}
				if best[s.key] == 0 || s.lat < best[s.key] {
					best[s.key] = s.lat
				}
			}
		}
	}
	out := best[:0]
	for _, v := range best {
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// calmPercentile is the q-quantile, over the distinct inputs of a workload
// whose ops repeat, of each input's fastest repetition: the latency of the
// program's own work, without what the host added to it. The sandbox slows
// the process down in bursts of 0.3 to 1.5 s, and now and then for tens of
// seconds, and only ever slows it: pooled over a run, store_approx's p95
// reads 3.5 ms when the bursts took under 5 % of the ops and 5.3 ms when they
// took more, and its p50 anything from 3.2 to 5.3 ms. An input's repetitions
// are scattered over the whole run, so its fastest one falls outside the
// bursts unless all of them were hit. samples counts the inputs.
func calmPercentile(cs []client, ws []window, q, scale float64) pctStat {
	best := undisturbed(cs, ws)
	st := pctStat{q: q, value: float64(resolved(best, q)) / scale, samples: len(best)}
	st.lo, st.hi = halves(ws, func(h []window) float64 {
		return float64(resolved(undisturbed(cs, h), q)) / scale
	})
	return st
}

// probe times fn single-threaded: one untimed call, then repeated calls
// until budget has passed (at least three), returning the median call time.
func probe(tr *tracer, name string, budget time.Duration, fn func()) (med time.Duration, n int) {
	fn()
	var durs []float64
	start := time.Now()
	for len(durs) < 3 || time.Since(start) < budget {
		t0 := tr.now()
		fn()
		t1 := tr.now()
		tr.root(name, t0, t1)
		durs = append(durs, float64(t1-t0))
	}
	return time.Duration(median(durs)), len(durs)
}

// procLine returns what follows key on the first line of a /proc file that
// starts with it ("" when the file or the line is missing).
func procLine(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return rest
		}
	}
	return ""
}

// rssMB reads the resident set size (0 where /proc does not exist).
func rssMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(procLine("/proc/self/status", "VmRSS:")), " kB"), 64)
	return kb / 1024
}

// cpuModel reads the processor's name.
func cpuModel() string {
	if name := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(procLine("/proc/cpuinfo", "model name")), ":")); name != "" {
		return name
	}
	return "unknown"
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

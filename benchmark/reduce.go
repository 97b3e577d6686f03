package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/synthetic"
	"repro/internal/eval"
	"repro/internal/linalg"
	"repro/internal/reduction"
	"repro/internal/stats"
)

// keepDims is how many components the pipeline retains.
const keepDims = 16

// reducePipeline is the paper's own workload in its noisy regime: fit a PCA
// with coherence on data whose largest-variance directions are injected
// noise, keep the most coherent components, project, and score the reduced
// set by feature-stripped k=3 accuracy. It is the only workload that runs
// stats, the linalg eigensolver, core's coherence model and eval; serve and
// store do nothing.
type reducePipeline struct {
	base
	ds      *dataset.Dataset
	accBits uint64 // the accuracy every op must reproduce, bit for bit
}

// setup builds the noisy data set by the NoisyDataA recipe at the Musk
// analogue's dimensionality: standardize, rescale every feature to deviation 0.5,
// replace 10 dimensions with uniform noise of amplitude 6.
func (w *reducePipeline) setup(context.Context) error {
	w.stages = w.stages[:0]
	t0 := time.Now()
	gen := synthetic.MuskLikeConfig(w.cfg.seed)
	gen.N = w.cfg.size.reduceN
	ds, err := synthetic.Generate(gen)
	if err != nil {
		return err
	}
	ds = ds.Standardized()
	ds.X.Scale(0.5)
	w.ds, _ = synthetic.CorruptRandom(ds, synthetic.NoisyDimensions, synthetic.NoisyAmplitude, w.cfg.seed+1000)
	w.stage("dataset.generate_s", time.Since(t0).Seconds())
	return nil
}

func (w *reducePipeline) teardown() { w.ds = nil }

// pipeline is one op. It returns the accuracy and the time spent in Fit and
// in ReduceDataset (the rest of the op is eval.DatasetAccuracy).
func (w *reducePipeline) pipeline(order reduction.Ordering) (acc float64, fit, reduce time.Duration, err error) {
	t0 := time.Now()
	p, err := reduction.Fit(w.ds.X, reduction.Options{Scaling: reduction.ScalingNone, ComputeCoherence: true})
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	red := p.ReduceDataset(w.ds, p.TopK(order, keepDims), "reduced")
	t2 := time.Now()
	return eval.DatasetAccuracy(red), t1.Sub(t0), t2.Sub(t1), nil
}

// verify runs the pipeline once to fix the accuracy every later op must
// return bit for bit.
func (w *reducePipeline) verify(context.Context) (check, error) {
	t0 := time.Now()
	acc, _, _, err := w.pipeline(reduction.ByCoherence)
	if err != nil {
		return check{}, err
	}
	w.gtSec = time.Since(t0).Seconds()
	w.accBits = math.Float64bits(acc)
	chk := check{attempted: 1}
	if !(acc > 0 && acc <= 1) {
		chk.failed++
	}
	return chk, nil
}

// clients returns a single caller: the stages are internally parallel.
func (w *reducePipeline) clients(t0 time.Time) []client {
	return []client{&reduceClient{l: newOpLog(), w: w, t0: t0}}
}

func (w *reducePipeline) counters() []namedValue { return nil }

func (w *reducePipeline) bypass(time.Time) []client { return nil }

// finish returns the share of ops that reproduced the reference accuracy:
// the accuracy itself depends on the seed's data (it moves by several percent
// from seed to seed), so it is reported per layer, not as the quality.
func (w *reducePipeline) finish(_ context.Context, cs []client) (check, float64, error) {
	l := cs[0].log()
	return check{}, float64(l.attempted-l.failed) / float64(l.attempted), nil
}

type reduceClient struct {
	l  *opLog
	w  *reducePipeline
	t0 time.Time
}

func (c *reduceClient) log() *opLog { return c.l }

func (c *reduceClient) step(context.Context) {
	if c.l.spans != nil {
		c.traced()
		return
	}
	t0 := time.Now()
	acc, fit, reduce, err := c.w.pipeline(reduction.ByCoherence)
	c.l.done(sample{kind: opPrimary, lat: int64(time.Since(t0)), a: int64(fit), b: int64(reduce)},
		err != nil || math.Float64bits(acc) != c.w.accBits)
}

// traced is the same op with reduction.Fit taken apart into the public
// stages it is made of, so their spans nest under the op. It must reproduce
// the untraced op's accuracy bits: that is the check that the stages timed
// here are the stages Fit runs.
func (c *reduceClient) traced() {
	l, ds := c.l, c.w.ds
	now := func() int64 { return int64(time.Since(c.t0)) }
	l.nextOp++
	op := l.nextOp
	opStart := now()
	// The two enclosing spans are opened first and closed once their last
	// stage has ended.
	root := l.spans.add(0, op, "op", opStart, opStart)
	fit := l.spans.add(root, op, "reduction.Fit", opStart, opStart)
	stage := func(parent uint32, name string, start int64) int64 {
		end := now()
		l.spans.add(parent, op, name, start, end)
		return end
	}

	work, mean := stats.Center(ds.X)
	t := stage(fit, "stats.Center", opStart)
	cov := stats.CovarianceMatrix(work)
	t = stage(fit, "stats.CovarianceMatrix", t)
	ed, err := linalg.EigSym(cov)
	if err != nil {
		l.done(sample{kind: opPrimary, lat: now() - opStart}, true)
		return
	}
	vals, vecs := ed.Descending()
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	t = stage(fit, "linalg.EigSym", t)
	ba := core.AnalyzeBasis(work, vecs, false)
	fitEnd := stage(fit, "core.AnalyzeBasis", t)
	l.spans.end(fit, fitEnd)

	scale := make([]float64, len(mean))
	for j := range scale {
		scale[j] = 1
	}
	p := &reduction.PCA{
		Mean: mean, Scale: scale, Eigenvalues: vals, Components: vecs,
		Coherence: ba.Coherences(), Scaling: reduction.ScalingNone,
	}
	red := p.ReduceDataset(ds, p.TopK(reduction.ByCoherence, keepDims), "reduced")
	t = stage(root, "reduction.PCA.ReduceDataset", fitEnd)
	acc := eval.DatasetAccuracy(red)
	opEnd := stage(root, "eval.DatasetAccuracy", t)
	l.spans.end(root, opEnd)
	l.done(sample{kind: opPrimary, lat: opEnd - opStart, a: fitEnd - opStart},
		math.Float64bits(acc) != c.w.accBits)
}

func (w *reducePipeline) layers(_ context.Context, lr *layerRun) error {
	m := lr.m
	w.report(lr.m)
	m.one("reduction.allocs_per_op", lr.allocsPerOp)

	// Whole-stage times come from the untraced ops, which call Fit itself.
	fit := windowPercentile(lr.cs, lr.untraced, fieldA, 0.50, 1e6, opPrimary)
	reduce := windowPercentile(lr.cs, lr.untraced, fieldB, 0.50, 1e6, opPrimary)
	acc := windowPercentile(lr.cs, lr.untraced, func(s sample) int64 { return s.lat - s.a - s.b }, 0.50, 1e6, opPrimary)
	m.pct("reduction.fit_ms", fit)
	m.pct("reduction.reduce_ms", reduce)
	m.pct("eval.accuracy_ms", acc)

	// Fit's parts come from the traced ops' spans.
	spans, _ := lr.tr.all()
	center, _ := spanMedianMS(spans, "stats.Center")
	cov, n := spanMedianMS(spans, "stats.CovarianceMatrix")
	eig, _ := spanMedianMS(spans, "linalg.EigSym")
	basis, _ := spanMedianMS(spans, "core.AnalyzeBasis")
	m.n("stats.covariance_ms", cov, n)
	m.n("linalg.eigsym_ms", eig, n)
	m.n("core.analyze_basis_ms", basis, n)
	m.n("reduction.fit_residual_ms", fit.value-center-cov-eig-basis, n)

	budget := lr.budget / 5
	x := w.ds.X
	d, n := probe(lr.tr, "probe.stats.Standardize", budget, func() { stats.Standardize(x, 1e-12) })
	m.n("stats.standardize_ms", float64(d)/1e6, n)
	d, n = probe(lr.tr, "probe.linalg.AtA", budget, func() { linalg.AtA(x) })
	m.n("linalg.ata_ms", float64(d)/1e6, n)

	// The paper's effect, once per run: at the same retained dimensionality
	// the coherence order usually scores above the eigenvalue order (on about
	// four seeds in five here), so the pair is reported, not gated.
	accEig, _, _, err := w.pipeline(reduction.ByEigenvalue)
	if err != nil {
		return fmt.Errorf("eigenvalue-ordered pipeline: %w", err)
	}
	m.one("reduction.accuracy", math.Float64frombits(w.accBits))
	m.one("reduction.accuracy_eig", accEig)
	return nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// sizing is the shape of every workload's inputs. A run uses fullSize; the
// package's own tests run the same code at toy scale.
type sizing struct {
	denseN, denseQ int // dense_exact and mutate_mix: data rows, held-out queries
	storeN, storeQ int // store_approx
	reduceN        int // reduce_pipeline
	// Queries held to bit-identity with knn.SearchSetBatch.
	verifyDense, verifyStore, verifyMutate int
}

var fullSize = sizing{
	denseN: 6598, denseQ: 512,
	storeN: 250_000, storeQ: 256,
	reduceN:     6598,
	verifyDense: 64, verifyStore: 8, verifyMutate: 32,
}

// dims is the Musk analogue's dimensionality, shared by every workload.
const dims = 166

// procs is GOMAXPROCS for every run, and clients = procs: callers that each
// wait for their reply, one per processor, so an op's latency is its service
// time and not a queue's. It is 1 because one processor is all the reference
// sandbox dependably provides: its second vCPU comes and goes for tens of
// seconds at a time (two busy threads get anything from 1.0x to 2.0x of one
// thread's throughput — eval.DatasetAccuracy flips between 345 ms and 683 ms
// on identical work), so any load that needs both has a bimodal throughput
// whose quartiles lie more than half its median apart. See README.md.
const procs = 1

// An untraced run sets the workload up at least minSetups times and, while a
// set-up is cheap, until 15 % of the measured time has been spent on it (at
// most maxSetups times); setup_s is the fastest. Set-up with one seed is the
// same work every time, and what it takes beyond its fastest repetition is
// the host's or the collector's: of twenty 60 ms set-ups in one process some
// take 60 and some 110 ms, and their median lands on either (0.062 or 0.110 s
// from run to run, where the fastest reads 0.057 to 0.072 s).
const (
	minSetups = 3
	maxSetups = 20
)

type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration // total length of the measured windows
	trace    bool
	outDir   string
	size     sizing
}

// check is the outcome of a correctness gate: how many answers it examined
// and how many were wrong.
type check struct{ attempted, failed int }

func (c *check) add(o check) { c.attempted += o.attempted; c.failed += o.failed }

// workload is one set of inputs plus the loop that consumes them.
type workload interface {
	// setup generates the inputs and builds whatever serves them; teardown
	// releases it. setup after teardown starts from scratch.
	setup(ctx context.Context) error
	teardown()
	// verify computes ground truth and holds the program's answers to it
	// before anything is timed.
	verify(ctx context.Context) (check, error)
	// clients returns the closed-loop callers, each with its own seeded
	// stream; t0 is the clock their spans share.
	clients(t0 time.Time) []client
	// repeats reports whether an input costs the same work every time it is
	// asked during a run, so that its fastest repetition is its latency and
	// anything slower the host's doing. It does not where writes change the
	// data under the reads.
	repeats() bool
	// counters reads the layers' public counters (nil when there are none).
	counters() []namedValue
	// finish runs the gates that need the measured traffic to have stopped
	// and returns the run's quality number.
	finish(ctx context.Context, cs []client) (check, float64, error)
	// bypass returns callers that run the layer under serve directly, with
	// the same queries (nil when serve is not on the workload's path).
	bypass(t0 time.Time) []client
	// layers runs the layer probes of a traced run and fills the per-layer
	// metrics.
	layers(ctx context.Context, lr *layerRun) error
}

// layerRun is what a traced run hands to workload.layers.
type layerRun struct {
	m                 *metricSet
	tr                *tracer
	cs                []client
	untraced, traced  []window
	budget            time.Duration // one measured window; a probe gets a fifth
	allocsPerOp       float64
	gcPauseMS         float64
	op, bypass        pctStat // p50 in microseconds: primary op over the untraced windows, bypass loop
	attempted, failed int     // bypass-loop accounting, added to the run's
}

// measured returns every untraced and traced window of the run.
func (lr *layerRun) measured() []window {
	return append(append([]window(nil), lr.untraced...), lr.traced...)
}

func newWorkload(cfg runConfig) (workload, error) {
	b := base{cfg: cfg}
	switch cfg.workload {
	case "dense_exact":
		return &denseExact{base: b}, nil
	case "store_approx":
		return &storeApprox{base: b}, nil
	case "mutate_mix":
		return &mutateMix{denseExact: denseExact{base: b}}, nil
	case "reduce_pipeline":
		return &reducePipeline{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// base is the state every workload keeps: its configuration, the timed
// stages of its last set-up (by per-layer metric name), and ground-truth
// time.
type base struct {
	cfg    runConfig
	stages []namedValue
	gtSec  float64
}

func (b *base) repeats() bool { return true }

// stage records one timed part of set-up under its per-layer metric name.
func (b *base) stage(name string, v float64) {
	b.stages = append(b.stages, namedValue{name, v})
}

// report stores the timed stages of the last set-up and the ground-truth
// time as per-layer metrics.
func (b *base) report(m *metricSet) {
	for _, s := range b.stages {
		m.one(s.Name, s.Value)
	}
	m.one("bench.groundtruth_s", b.gtSec)
}

// outcome is one run of one workload: the contract's result line plus, for
// the full run's result.json, each metric's sample count and spread.
type outcome struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// runWorkload executes one workload once: set-up, verification, warm-up,
// then either the untraced measured windows (end-to-end metrics) or the
// traced windows, bypass loop and probes (per-layer metrics).
func runWorkload(ctx context.Context, cfg runConfig) (outcome, error) {
	out := outcome{Workload: cfg.workload, Trace: cfg.trace}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return out, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return out, err
	}
	defer w.teardown()

	first, err := timeSetup(ctx, w)
	if err != nil {
		return out, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	var total check
	chk, err := w.verify(ctx)
	if err != nil {
		return out, fmt.Errorf("%s: verification: %w", cfg.workload, err)
	}
	total.add(chk)

	tr := newTracer(procs)
	cs := w.clients(tr.t0)
	runWindow(ctx, cs, cfg.measure/10, nil) // warm-up, discarded

	var extra check
	if cfg.trace {
		out.Metrics, extra, err = tracedRun(ctx, cfg, w, tr, cs)
	} else {
		out.Metrics, extra, err = untracedRun(ctx, cfg, w, cs, first)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	total.add(extra)
	for _, c := range cs {
		total.attempted += c.log().attempted
		total.failed += c.log().failed
	}
	out.Attempted, out.Failed = total.attempted, total.failed
	out.Correct = total.failed == 0
	return out, nil
}

// timeSetup sets w up from scratch and returns how long that took.
func timeSetup(ctx context.Context, w workload) (time.Duration, error) {
	w.teardown()
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(ctx); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t0), nil
}

// repeatSetups sets the workload up again and again on an instance of its
// own, beside the one being measured, and returns every set-up time of the
// run, first included.
func repeatSetups(ctx context.Context, cfg runConfig, first time.Duration) ([]float64, error) {
	scratch, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer scratch.teardown()
	setups := []float64{first.Seconds()}
	spent := first
	for i := 1; i < minSetups || (spent < cfg.measure*15/100 && i < maxSetups); i++ {
		took, err := timeSetup(ctx, scratch)
		if err != nil {
			return nil, err
		}
		spent += took
		setups = append(setups, took.Seconds())
	}
	return setups, nil
}

// measuredWindows is how many windows an untraced run's measured time is cut
// into: short ones (half a second of a 15 s run), so that some of them fall
// between the host's bursts. An op longer than a window is a window by
// itself, and the run has fewer.
const measuredWindows = 30

// windowsFor runs untraced windows until d has passed.
func windowsFor(ctx context.Context, cfg runConfig, cs []client, d time.Duration) []window {
	var ws []window
	for start := time.Now(); time.Since(start) < d && ctx.Err() == nil; {
		ws = append(ws, runWindow(ctx, cs, cfg.measure/measuredWindows, nil))
	}
	return ws
}

// untracedRun measures the end-to-end metrics: half of the measured windows,
// the rest of the run's set-ups, the other half, then the post-run gates.
// The set-ups sit in the middle because the host also has spells of tens of
// seconds in which everything runs 30 to 60 % slower: the further apart the
// two halves are (15 s on store_approx), the likelier that one of them falls
// outside such a spell, and the best window and each input's fastest
// repetition then come from that one.
func untracedRun(ctx context.Context, cfg runConfig, w workload, cs []client, first time.Duration) ([]metric, check, error) {
	ws := windowsFor(ctx, cfg, cs, cfg.measure/2)
	setups, err := repeatSetups(ctx, cfg, first)
	if err != nil {
		return nil, check{}, err
	}
	ws = append(ws, windowsFor(ctx, cfg, cs, cfg.measure-cfg.measure/2)...)
	// Resident memory is read after a forced collection has returned freed
	// pages to the system: what the serving state itself keeps resident. Read
	// as it stands, it depends on where the collector's and the compactor's
	// cycles happen to be (41 or 50 MB on mutate_mix, run to run).
	debug.FreeOSMemory()
	rss := rssMB()
	chk, quality, err := w.finish(ctx, cs)
	if err != nil {
		return nil, chk, fmt.Errorf("post-run gate: %w", err)
	}
	m := newMetricSet(endToEnd)
	rate := medianRate
	p50 := windowPercentile(cs, ws, fieldLat, 0.50, 1e6, opPrimary)
	p95 := windowPercentile(cs, ws, fieldLat, 0.95, 1e6, opPrimary)
	if w.repeats() {
		// The host only ever slows the program down: the best window and each
		// input's fastest repetition are the program's own speed.
		rate = bestRate
		p50 = calmPercentile(cs, ws, 0.50, 1e6)
		p95 = calmPercentile(cs, ws, 0.95, 1e6)
	}
	lo, hi := halves(ws, rate)
	m.set("ops_per_s", rate(ws), len(ws), lo, hi)
	m.pct("op_p50_ms", p50)
	m.pct("op_p95_ms", p95)
	m.one("quality", quality)
	fastest, slowest := minMax(setups)
	m.set("setup_s", fastest, len(setups), fastest, slowest)
	m.one("rss_mb", rss)
	return m.list, chk, nil
}

// tracedRun measures the per-layer metrics: the traced windows, the post-run
// gates, the layer probes, and the trace file.
func tracedRun(ctx context.Context, cfg runConfig, w workload, tr *tracer, cs []client) ([]metric, check, error) {
	m := newMetricSet(perLayer)
	lr, err := tracedWindows(ctx, cfg, w, tr, cs, m)
	if err != nil {
		return nil, check{}, err
	}
	chk, _, err := w.finish(ctx, cs)
	if err != nil {
		return nil, chk, fmt.Errorf("post-run gate: %w", err)
	}
	if err := w.layers(ctx, lr); err != nil {
		return nil, chk, fmt.Errorf("layer probes: %w", err)
	}
	chk.attempted += lr.attempted
	chk.failed += lr.failed
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	return m.list, chk, tr.write(path, cfg.workload, cfg.seed)
}

// tracedWindows runs the measured part of a traced run: two rounds of an
// untraced window, a traced window and a bypass window. The three kinds
// alternate because the sandbox's speed drifts by several percent over tens
// of seconds: the tracing overhead and serve's overhead are differences of a
// few percent between loops, readable only from windows that share the drift.
// The layers' counters are snapshotted at both edges of every untraced and
// traced window (the bypass loop moves the store's counters too, so it stays
// outside them) and sampled every 100 ms inside the traced ones.
func tracedWindows(ctx context.Context, cfg runConfig, w workload, tr *tracer, cs []client, m *metricSet) (*layerRun, error) {
	lr := &layerRun{m: m, tr: tr, cs: cs, budget: cfg.measure / 6}
	bypass := w.bypass(tr.t0)
	var bypassed []window
	var mallocs, pauseNS uint64
	ops := 0
	for round := 0; round < 2; round++ {
		for _, traced := range []bool{false, true} {
			before := readMem()
			tr.snapshot("window-start", w.counters())
			var win window
			if traced {
				win = sampledWindow(ctx, w, tr, cs, lr.budget)
				lr.traced = append(lr.traced, win)
			} else {
				win = runWindow(ctx, cs, lr.budget, nil)
				lr.untraced = append(lr.untraced, win)
			}
			tr.snapshot("window-end", w.counters())
			after := readMem()
			mallocs += after.Mallocs - before.Mallocs
			pauseNS += after.PauseTotalNs - before.PauseTotalNs
			for c := range cs {
				ops += win.hi[c] - win.lo[c]
			}
		}
		if bypass != nil {
			bypassed = append(bypassed, runWindow(ctx, bypass, lr.budget/2, tr.bufs))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ops > 0 {
		lr.allocsPerOp = float64(mallocs) / float64(ops)
	}
	lr.gcPauseMS = float64(pauseNS) / 1e6
	lr.op = windowPercentile(cs, lr.untraced, fieldLat, 0.50, 1e3, opPrimary)
	lr.bypass = windowPercentile(bypass, bypassed, fieldLat, 0.50, 1e3, opPrimary)
	for _, c := range bypass {
		lr.attempted += c.log().attempted
		lr.failed += c.log().failed
	}
	m.n("bench.samples", float64(lr.op.samples), lr.op.samples)

	if off := median(rates(lr.untraced)); off > 0 {
		on := median(rates(lr.traced))
		m.n("bench.trace_overhead_pct", 100*(off-on)/off, len(lr.untraced)+len(lr.traced))
	}
	return lr, nil
}

// sampledWindow is a traced window with a sampler beside the clients: every
// 100 ms it snapshots the layers' public counters, which is where the mean
// delta depth and tombstone count of a mutating run come from.
func sampledWindow(ctx context.Context, w workload, tr *tracer, cs []client, d time.Duration) window {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if w.counters() != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					tr.snapshot("sample", w.counters())
				}
			}
		}()
	}
	win := runWindow(ctx, cs, d, tr.bufs)
	close(stop)
	wg.Wait()
	return win
}

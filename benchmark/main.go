// Command benchmark is the repository's benchmark: four workloads over the
// serving engine, the quantized store and the reduction pipeline, measured
// from outside through their public entry points.
//
//	go run ./benchmark -seed 1
//
// runs every workload (each in a fresh process), checks outputs, prints
// every metric by name with unit and sample count, and writes
// benchmark/out/result.json plus benchmark/out/trace-<workload>.json.
//
//	go run ./benchmark -workload dense_exact -seed 1 -seconds 15 -trace 0
//
// is one run of one workload as BENCHMARK.json's driver invokes it: the last
// line of standard output is one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
//	go run ./benchmark -compare a.json b.json
//
// applies BENCHMARK.json's bounds to two result files. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit, so deferred clean-up — the store
// file above all — happens on every path out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print the driver's result line (default: run all)")
	seed := fs.Int64("seed", 1, "seed of every generator and per-client stream")
	seconds := fs.Int("seconds", 15, "length of the measured windows of one run, in seconds")
	trace := fs.Int("trace", 0, "with -workload: 0 measures end-to-end metrics untraced, 1 the per-layer metrics traced")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, traces and the temporary store file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	specPath := fs.String("spec", "BENCHMARK.json", "with -compare: the file holding the bounds")
	detail := fs.String("detail", "", "with -workload: also write the run's full record (samples, spread) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *workload != "":
		out, err := runWorkload(ctx, runConfig{
			workload: *workload, seed: *seed, measure: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, outDir: *outDir, size: fullSize,
		})
		if err != nil {
			return fail(err)
		}
		if *detail != "" {
			if err := writeJSON(*detail, out, true); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintln(stdout, resultLine(out))
		if !out.Correct {
			return fail(fmt.Errorf("%s: %d of %d checked operations failed", out.Workload, out.Failed, out.Attempted))
		}
		return 0
	default:
		if err := runAll(ctx, stdout, stderr, *seed, *seconds, *outDir); err != nil {
			return fail(err)
		}
		return 0
	}
}

// resultLine renders the driver's result object. Metrics are written in list
// order with every digit of the measured value.
func resultLine(o outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, o.Correct, o.Attempted, o.Failed)
	for i, m := range o.Metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`,
			strconv.Quote(m.Name), strconv.FormatFloat(v, 'g', -1, 64), strconv.Quote(m.Unit))
	}
	b.WriteString("}}")
	return b.String()
}

// workloadResult is one workload's row of result.json.
type workloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

// result is result.json: where and on what the numbers were taken, then the
// workloads in run order.
type result struct {
	Seed       int64            `json:"seed"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	CPU        string           `json:"cpu_model"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

// commit asks git for the checked-out revision ("unknown" outside a git
// checkout, "+dirty" with uncommitted changes).
func commit(ctx context.Context) string {
	rev, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	dirty := ""
	if status, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		dirty = "+dirty"
	}
	return strings.TrimSpace(string(rev)) + dirty
}

// runAll runs every workload twice — untraced for the end-to-end metrics,
// traced for the per-layer ones — each run in a fresh process, so resident
// memory, collector and page-cache state do not leak from one to the next.
func runAll(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := result{
		Seed: seed, Commit: commit(ctx), GoVersion: runtime.Version(),
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), CPU: cpuModel(), RunSeconds: seconds,
	}
	fmt.Fprintf(stdout, "seed %d  commit %s  %s  GOMAXPROCS %d of %d  %s\n",
		res.Seed, res.Commit, res.GoVersion, res.GOMAXPROCS, res.NumCPU, res.CPU)
	allCorrect := true
	for _, name := range workloadNames {
		wr := workloadResult{Name: name, Correct: true}
		for trace := 0; trace <= 1; trace++ {
			detail := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", name, trace))
			cmd := exec.CommandContext(ctx, self,
				"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
				"-trace", strconv.Itoa(trace), "-out", outDir, "-detail", detail)
			cmd.Stderr = stderr // the child's result line is not needed: the detail file has it all
			// A run with a wrong answer exits non-zero after writing its
			// record, so the record decides, not the exit code.
			runErr := cmd.Run()
			raw, err := os.ReadFile(detail)
			os.Remove(detail)
			if err != nil {
				if runErr != nil {
					err = runErr
				}
				return fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			var o outcome
			if err := json.Unmarshal(raw, &o); err != nil {
				return fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			wr.Correct = wr.Correct && o.Correct
			wr.Attempted += o.Attempted
			wr.Failed += o.Failed
			if trace == 0 {
				wr.EndToEnd = o.Metrics
			} else {
				wr.PerLayer = o.Metrics
			}
		}
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		allCorrect = allCorrect && wr.Correct
		res.Workloads = append(res.Workloads, wr)
		printWorkload(stdout, wr)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, res, true); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	if !allCorrect {
		return fmt.Errorf("a correctness gate failed")
	}
	return nil
}

// printWorkload prints one workload's metrics: name, value, unit, sample
// count and spread, and marks a percentile this run could not resolve.
func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n%s: correct=%t attempted=%d failed=%d fail_ratio=%g\n",
		wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.FailRatio)
	for _, group := range [][]metric{wr.EndToEnd, wr.PerLayer} {
		for _, m := range group {
			if m.Samples == 0 {
				continue // the layer does nothing on this workload
			}
			note := ""
			if m.Quantile > 0 && float64(m.Samples)*(1-m.Quantile) < minBeyond {
				note = fmt.Sprintf("  (fewer than %d samples beyond p%.0f: the highest resolved percentile instead)", minBeyond, 100*m.Quantile)
			}
			fmt.Fprintf(w, "  %-30s %14.6g %-5s n=%-7d [%.6g, %.6g]%s\n", m.Name, m.Value, m.Unit, m.Samples, m.Lo, m.Hi, note)
		}
	}
}

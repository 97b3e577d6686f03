// Command experiments regenerates every table and figure of the paper on
// the synthetic data-set analogues, printing aligned text reports.
//
// Usage:
//
//	experiments [-seed N] [-threshold F] [-only name]
//
// Section names for -only: figure1, figure2, table1, scatter, coherence,
// quality, ordering, uniform, contrast, pruning, recall, local, igrid,
// implicit, ablations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/reduction"
)

// section is one named report; sections lists them in print order and is
// the one place a name -only accepts is written down.
type section struct {
	name string
	run  func(out io.Writer, cfg experiments.Config)
}

var sections = []section{
	{"figure1", func(out io.Writer, _ experiments.Config) { experiments.Figure1().Format(out) }},
	{"figure2", func(out io.Writer, _ experiments.Config) { experiments.Figure2().Format(out) }},
	{"table1", func(out io.Writer, cfg experiments.Config) { experiments.Table1(cfg).Format(out) }},
	{"scatter", func(out io.Writer, cfg experiments.Config) {
		// Figures 3, 6, 9 (clean, normalized) and 12, 14 (noisy, raw).
		for _, spec := range experiments.AllClean(cfg.Seed) {
			experiments.Scatter(spec, reduction.ScalingStudentize).Format(out)
			fmt.Fprintln(out)
		}
		experiments.Scatter(experiments.NoisyA(cfg.Seed), reduction.ScalingNone).Format(out)
		fmt.Fprintln(out)
		experiments.Scatter(experiments.NoisyB(cfg.Seed), reduction.ScalingNone).Format(out)
	}},
	{"coherence", func(out io.Writer, cfg experiments.Config) {
		// Figures 4, 7, 10.
		for _, spec := range experiments.AllClean(cfg.Seed) {
			experiments.CoherenceDistribution(spec).Format(out)
			fmt.Fprintln(out)
		}
	}},
	{"quality", func(out io.Writer, cfg experiments.Config) {
		// Figures 5, 8, 11.
		for _, spec := range experiments.AllClean(cfg.Seed) {
			experiments.ScalingQuality(spec).Format(out)
			fmt.Fprintln(out)
		}
	}},
	{"ordering", func(out io.Writer, cfg experiments.Config) {
		// Figures 13, 15.
		experiments.OrderingQuality(experiments.NoisyA(cfg.Seed)).Format(out)
		fmt.Fprintln(out)
		experiments.OrderingQuality(experiments.NoisyB(cfg.Seed)).Format(out)
	}},
	{"uniform", func(out io.Writer, cfg experiments.Config) { experiments.UniformCoherence(cfg).Format(out) }},
	{"contrast", func(out io.Writer, cfg experiments.Config) { experiments.ContrastSweep(cfg).Format(out) }},
	{"pruning", func(out io.Writer, cfg experiments.Config) { experiments.IndexPruning(cfg).Format(out) }},
	{"recall", func(out io.Writer, cfg experiments.Config) { experiments.LSHRecall(cfg).Format(out) }},
	{"local", func(out io.Writer, cfg experiments.Config) { experiments.LocalReduction(cfg).Format(out) }},
	{"igrid", func(out io.Writer, cfg experiments.Config) { experiments.IGridComparison(cfg).Format(out) }},
	{"implicit", func(out io.Writer, cfg experiments.Config) { experiments.ImplicitDimensionality(cfg).Format(out) }},
	{"ablations", func(out io.Writer, cfg experiments.Config) {
		experiments.ScalingAblation(cfg).Format(out)
		fmt.Fprintln(out)
		experiments.SelectionAblation(cfg).Format(out)
		fmt.Fprintln(out)
		experiments.MetricAblation(cfg).Format(out)
		fmt.Fprintln(out)
		experiments.NoiseAblation(cfg).Format(out)
	}},
}

// run prints every section, or the one named by only (case-insensitive).
// A name that is not in sections is an error, not an empty report, and so
// is a threshold fraction the Table 1 selection rule would panic on (the
// negated form also rejects NaN).
func run(out io.Writer, cfg experiments.Config, only string) error {
	if !(cfg.ThresholdFrac >= 0 && cfg.ThresholdFrac <= 1) {
		return fmt.Errorf("experiments: -threshold %v out of range [0,1]", cfg.ThresholdFrac)
	}
	match := func(s section) bool { return only == "" || strings.EqualFold(only, s.name) }
	if !slices.ContainsFunc(sections, match) {
		names := make([]string, len(sections))
		for i, s := range sections {
			names[i] = s.name
		}
		return fmt.Errorf("experiments: unknown section %q for -only; valid names: %s", only, strings.Join(names, ", "))
	}
	for _, s := range sections {
		if !match(s) {
			continue
		}
		fmt.Fprintf(out, "==== %s ====\n", s.name)
		s.run(out, cfg)
		fmt.Fprintln(out)
	}
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "seed for all synthetic data generation")
	threshold := flag.Float64("threshold", 0.01, "Table 1 eigenvalue-threshold fraction (paper OCR reads 1%)")
	only := flag.String("only", "", "run a single section (see doc comment)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, ThresholdFrac: *threshold}
	if err := run(os.Stdout, cfg, *only); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// Command datagen writes the synthetic data-set analogues used by the
// experiment suite to CSV files, so they can be inspected or fed to other
// tools (including drtool), or streams large musk-like sets straight into
// the quantized store format (internal/store).
//
// Usage:
//
//	datagen [-seed N] [-dir DIR] [-set name]
//	datagen -bin out.qvs -n N -d D [-seed N] [-block B]
//
// Set names: musk, ionosphere, arrhythmia, noisy-a, noisy-b, uniform, all.
//
// The -bin mode scales the musk-like latent-factor model to N points in D
// dimensions and writes the store file in two streaming passes (a scale
// pass and an encode pass), so peak memory stays O(D) regardless of N —
// a million-point set never materializes a float64 matrix. The file is the
// store's one layout: int8 codes in variance-descending storage order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	repro "repro"
	"repro/internal/dataset/synthetic"
	"repro/internal/store"
)

func main() {
	seed := flag.Int64("seed", 1, "generation seed")
	dir := flag.String("dir", ".", "output directory (CSV mode)")
	set := flag.String("set", "all", "which data set to emit (CSV mode)")
	bin := flag.String("bin", "", "write a quantized store file to this path instead of CSVs")
	n := flag.Int("n", 0, "number of points (store mode)")
	d := flag.Int("d", 0, "dimensionality (store mode)")
	block := flag.Int("block", 0, "rows per code block, 0 = default (store mode)")
	flag.Parse()

	if *bin != "" {
		if err := writeStore(*bin, *n, *d, *seed, *block); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sets := map[string]func() *repro.Dataset{
		"musk":       func() *repro.Dataset { return repro.MuskLike(*seed) },
		"ionosphere": func() *repro.Dataset { return repro.IonosphereLike(*seed) },
		"arrhythmia": func() *repro.Dataset { return repro.ArrhythmiaLike(*seed) },
		"noisy-a":    func() *repro.Dataset { d, _ := repro.NoisyDataA(*seed); return d },
		"noisy-b":    func() *repro.Dataset { d, _ := repro.NoisyDataB(*seed); return d },
		"uniform":    func() *repro.Dataset { return repro.UniformCube("uniform", 1000, 50, *seed) },
	}

	var names []string
	if *set == "all" {
		names = []string{"musk", "ionosphere", "arrhythmia", "noisy-a", "noisy-b", "uniform"}
	} else {
		if _, ok := sets[*set]; !ok {
			fmt.Fprintf(os.Stderr, "datagen: unknown set %q\n", *set)
			os.Exit(2)
		}
		names = []string{*set}
	}

	for _, name := range names {
		ds := sets[name]()
		path := filepath.Join(*dir, name+".csv")
		if err := write(path, ds); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", path, ds)
	}
}

// muskStream scales the musk-like latent-factor model to n x d points.
func muskStream(n, d int, seed int64) (*synthetic.RowStream, error) {
	gen := synthetic.MuskLikeConfig(seed)
	gen.Name = fmt.Sprintf("musk-like-%dx%d", n, d)
	gen.N = n
	gen.Dims = d
	if len(gen.ConceptStrengths) > d {
		gen.ConceptStrengths = gen.ConceptStrengths[:d]
	}
	return synthetic.NewRowStream(gen)
}

// writeStore streams a musk-like set of n x d points into a store file.
func writeStore(path string, n, d int, seed int64, block int) error {
	if n <= 0 || d <= 0 {
		return fmt.Errorf("store mode needs -n and -d (got n=%d d=%d)", n, d)
	}
	stream, err := muskStream(n, d, seed)
	if err != nil {
		return err
	}

	// Pass 1: per-dimension min/max for the quantization scales, and the
	// variances that order the storage dimensions — the same build
	// `drtool -bench store` and the benchmark harness do.
	acc := store.NewScaleAccumulator(d)
	for i := 0; i < n; i++ {
		row, _ := stream.Next()
		acc.Add(row)
	}
	cfg := store.BuildConfig{BlockRows: block, Perm: acc.VarianceOrder()}
	cfg.Mins, cfg.Steps = acc.Scales(store.Int8)

	// Pass 2: replay the identical rows into the fixed-layout file.
	if err := stream.Reset(); err != nil {
		return err
	}
	w, err := store.Create(path, n, d, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row, _ := stream.Next()
		if err := w.Append(row); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d x %d, %s, %d bytes)\n", path, n, d, store.Int8, st.Size())
	return nil
}

func write(path string, ds *repro.Dataset) error {
	// Name the features so the CSV round-trips with a header row
	// (drtool -header).
	if ds.FeatureNames == nil {
		names := make([]string, ds.Dims())
		for j := range names {
			names[j] = fmt.Sprintf("f%d", j+1)
		}
		ds.FeatureNames = names
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return repro.WriteCSV(f, ds)
}

// Command datagen writes the synthetic data-set analogues used by the
// experiment suite to CSV files, so they can be inspected or fed to other
// tools (including drtool).
//
// Usage:
//
//	datagen [-seed N] [-dir DIR] [-set name]
//
// Set names: musk, ionosphere, arrhythmia, noisy-a, noisy-b, uniform, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	repro "repro"
)

func main() {
	seed := flag.Int64("seed", 1, "generation seed")
	dir := flag.String("dir", ".", "output directory")
	set := flag.String("set", "all", "which data set to emit")
	flag.Parse()

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
	if err := repro.WriteCSV(f, ds); err != nil {
		f.Close()
		return err
	}
	// Close can be where a write-back failure (full disk, NFS) surfaces.
	return f.Close()
}

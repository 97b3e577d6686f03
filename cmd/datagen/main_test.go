package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestWriteStoreMatchesVarianceOrderBuild pins what `datagen -bin` writes:
// byte for byte the file a hand-rolled two-pass build over the same row
// stream produces with the variance-descending permutation and int8
// min/max scales — the layout every recorded store run sweeps. d = 70
// enables the early-abandon prefix, so a natural-order file would differ.
func TestWriteStoreMatchesVarianceOrderBuild(t *testing.T) {
	const n, d, seed, block = 300, 70, 5, 128
	dir := t.TempDir()
	got := filepath.Join(dir, "datagen.qvs")
	if err := writeStore(got, n, d, seed, block); err != nil {
		t.Fatal(err)
	}

	stream, err := muskStream(n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	acc := store.NewScaleAccumulator(d)
	for i := 0; i < n; i++ {
		row, _ := stream.Next()
		acc.Add(row)
	}
	cfg := store.BuildConfig{BlockRows: block, Perm: acc.VarianceOrder()}
	cfg.Mins, cfg.Steps = acc.Scales(store.Int8)
	if err := stream.Reset(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "reference.qvs")
	w, err := store.Create(want, n, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row, _ := stream.Next()
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("datagen file (%d bytes) differs from the variance-order reference (%d bytes)", len(a), len(b))
	}
	identity := true
	for j, p := range cfg.Perm {
		identity = identity && p == j
	}
	if identity {
		t.Fatal("variance order of the test shape is the identity; the test cannot tell the orders apart")
	}
}

func TestWriteStoreRejectsEmptyShape(t *testing.T) {
	if err := writeStore(filepath.Join(t.TempDir(), "x.qvs"), 0, 8, 1, 0); err == nil {
		t.Fatal("writeStore accepted n=0")
	}
}

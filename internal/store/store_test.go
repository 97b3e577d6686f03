package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset/synthetic"
	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/linalg"
)

// testData generates a musk-like set with heterogeneous per-dimension
// scales (the hard case for scalar quantization) split into data and
// held-out query rows.
func testData(t testing.TB, n, nq, d int, seed int64) (data, queries *linalg.Dense) {
	t.Helper()
	k := 6
	if k > d {
		k = d
	}
	strengths := make([]float64, k)
	for i := range strengths {
		strengths[i] = []float64{6, 6, 3.5, 3.5, 2, 2}[i%6]
	}
	ds, err := synthetic.Generate(synthetic.LatentFactorConfig{
		Name: "store-test", N: n + nq, Dims: d, Classes: 2,
		ConceptStrengths: strengths, ClassSeparation: 0.9,
		NoiseStdDev: 2.2, ScaleSpread: 1.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.X.RowSlice(0, n), ds.X.RowSlice(n, n+nq)
}

func buildStore(t testing.TB, data *linalg.Dense, cfg BuildConfig) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.qvs")
	if err := Write(path, data, cfg); err != nil {
		t.Fatalf("writing store: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// reversePerm is a fixed non-identity permutation for the variant matrix.
func reversePerm(d int) []int {
	p := make([]int, d)
	for i := range p {
		p[i] = d - 1 - i
	}
	return p
}

// storeVariants is the one configuration matrix the contract tests run
// under: the natural storage order, a fixed non-identity order, the
// variance-descending order every recorded run builds with, and a block
// size smaller than n. Whether the early-abandon prefix is active depends
// only on the width of data — see prefixTestDims.
func storeVariants(data *linalg.Dense) map[string]BuildConfig {
	n, d := data.Dims()
	acc := NewScaleAccumulator(d)
	for i := 0; i < n; i++ {
		acc.Add(data.RawRow(i))
	}
	return map[string]BuildConfig{
		"int8":          {Precision: Int8},
		"int8-perm":     {Perm: reversePerm(d)},
		"int8-variance": {Perm: acc.VarianceOrder()},
		"int8-smallblk": {BlockRows: 64},
	}
}

// TestExactRegionBitIdentical pins the full-precision region: the mmapped
// exact matrix must reproduce the source rows bit for bit.
func TestExactRegionBitIdentical(t *testing.T) {
	data, _ := testData(t, 300, 1, 37, 11)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		em := s.ExactMatrix()
		for i := 0; i < data.Rows(); i++ {
			src, got := data.RawRow(i), em.RawRow(i)
			for j := range src {
				if math.Float64bits(src[j]) != math.Float64bits(got[j]) {
					t.Fatalf("%s: exact[%d][%d] = %x, want %x", name, i, j,
						math.Float64bits(got[j]), math.Float64bits(src[j]))
				}
			}
		}
	}
}

// TestRoundTripErrorBound is the quantization property test: for every
// stored point and every dimension, |dequant(quant(x)) − x| ≤ step/2.
func TestRoundTripErrorBound(t *testing.T) {
	data, _ := testData(t, 400, 1, 29, 13)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		steps := s.Steps()
		for i := 0; i < data.Rows(); i++ {
			src, rec := data.RawRow(i), s.DequantRow(i)
			for j := range src {
				err := math.Abs(rec[j] - src[j])
				bound := steps[j]/2*(1+1e-12) + 1e-12*math.Abs(src[j])
				if err > bound {
					t.Fatalf("%s: row %d dim %d: |dequant−x| = %g exceeds bound %g (step %g)",
						name, i, j, err, bound, steps[j])
				}
			}
		}
	}
}

// TestFullRescoreBitIdenticalToSearchSetBatch is the exactness contract:
// with a rescore budget covering every point, two-phase search must return
// results bit-identical to knn.SearchSetBatch under the canonical
// (distance, index) order — distances included, since phase 2 scores with
// the same scalar Euclidean metric against the same float64 bits.
func TestFullRescoreBitIdenticalToSearchSetBatch(t *testing.T) {
	data, queries := testData(t, 500, 24, 31, 17)
	want := knn.SearchSetBatch(data, queries, 10, knn.Euclidean{}, false)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		for qi := 0; qi < queries.Rows(); qi++ {
			got := s.Search(queries.RawRow(qi), 10, s.Len())
			if len(got) != len(want[qi]) {
				t.Fatalf("%s: query %d returned %d neighbors, want %d", name, qi, len(got), len(want[qi]))
			}
			for r := range got {
				if got[r].Index != want[qi][r].Index ||
					math.Float64bits(got[r].Dist) != math.Float64bits(want[qi][r].Dist) {
					t.Fatalf("%s: query %d rank %d: got (%d, %x), want (%d, %x)",
						name, qi, r, got[r].Index, math.Float64bits(got[r].Dist),
						want[qi][r].Index, math.Float64bits(want[qi][r].Dist))
				}
			}
		}
	}
}

// TestPartialRescoreRecall pins the two-phase quality: with a modest
// rescore budget the store must find essentially all true neighbors, and
// every reported distance must still be exact (phase 2 only ever reports
// exact distances).
func TestPartialRescoreRecall(t *testing.T) {
	data, queries := testData(t, 3000, 32, 64, 19)
	k := 10
	want := knn.SearchSetBatch(data, queries, k, knn.Euclidean{}, false)
	for name, cfg := range storeVariants(data) {
		s := buildStore(t, data, cfg)
		got := make([][]knn.Neighbor, queries.Rows())
		for qi := range got {
			got[qi] = s.Search(queries.RawRow(qi), k, 10*k)
		}
		recall := index.MeanRecall(got, want)
		if recall < 0.99 {
			t.Errorf("%s: recall@%d = %.4f with rescore budget %d, want >= 0.99", name, k, recall, 10*k)
		}
		e := knn.Euclidean{}
		for qi := range got {
			for _, nb := range got[qi] {
				exact := e.Distance(data.RawRow(nb.Index), queries.RawRow(qi))
				if math.Float64bits(exact) != math.Float64bits(nb.Dist) {
					t.Fatalf("%s: query %d neighbor %d reported dist %v, exact %v", name, qi, nb.Index, nb.Dist, exact)
				}
			}
		}
	}
}

// TestSearchRangeMergesToWholeStore splits the store into ranges aligned
// and unaligned with block boundaries and checks that merging per-range
// results under the canonical order reproduces the whole-store search —
// the contract the sharded serving layer relies on.
func TestSearchRangeMergesToWholeStore(t *testing.T) {
	data, queries := testData(t, 700, 8, 23, 23)
	s := buildStore(t, data, BuildConfig{Precision: Int8, BlockRows: 128})
	k := 7
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.RawRow(qi)
		whole := s.Search(q, k, s.Len())
		for _, cuts := range [][]int{{0, 350, 700}, {0, 128, 512, 700}, {0, 1, 699, 700}} {
			var merged []knn.Neighbor
			for c := 0; c+1 < len(cuts); c++ {
				part, _ := s.SearchLive(q, cuts[c], cuts[c+1], k, cuts[c+1]-cuts[c], 1, nil)
				merged = append(merged, part...)
			}
			knn.SortNeighbors(merged)
			if len(merged) > k {
				merged = merged[:k]
			}
			for r := range whole {
				if merged[r] != whole[r] {
					t.Fatalf("query %d cuts %v rank %d: merged %+v, whole %+v", qi, cuts, r, merged[r], whole[r])
				}
			}
		}
	}
}

// TestWriterMisuse covers the streaming writer's error paths.
func TestWriterMisuse(t *testing.T) {
	dir := t.TempDir()
	mins := []float64{0, 0}
	steps := []float64{1, 1}

	if _, err := Create(filepath.Join(dir, "a.qvs"), 4, 2, BuildConfig{}); err == nil {
		t.Error("Create without scales must fail")
	}
	w, err := Create(filepath.Join(dir, "b.qvs"), 2, 2, BuildConfig{Mins: mins, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float64{1, 2, 3}); err == nil {
		t.Error("Append with wrong dims must fail")
	}
	if err := w.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close before all rows appended must fail")
	}

	w2, err := Create(filepath.Join(dir, "c.qvs"), 1, 2, BuildConfig{Mins: mins, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]float64{1, 2}); err == nil {
		t.Error("Append past n must fail")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Create(filepath.Join(dir, "d.qvs"), 3, 2,
		BuildConfig{Mins: mins, Steps: steps, Perm: []int{0, 0}}); err == nil {
		t.Error("non-permutation Perm must fail")
	}
}

// corruptCase is one damaged copy of a valid file and the sentinel Open
// must fail with.
type corruptCase struct {
	corrupt func([]byte) []byte
	want    error
}

// corruptCases are the header validation paths and the perm/scale regions
// every query reads through, for a valid file of layout l.
func corruptCases(l layout) map[string]corruptCase {
	le := binary.LittleEndian
	setStep := func(v float64) func([]byte) []byte {
		return func(b []byte) []byte { le.PutUint64(b[l.stepsOff:], math.Float64bits(v)); return b }
	}
	return map[string]corruptCase{
		"bad magic":           {func(b []byte) []byte { b[0] = 'X'; return b }, ErrFormat},
		"bad version":         {func(b []byte) []byte { b[4] = 99; return b }, ErrFormat},
		"endian sentinel":     {func(b []byte) []byte { b[8] ^= 0xff; return b }, ErrFormat},
		"unknown precision":   {func(b []byte) []byte { b[32] = 7; return b }, ErrFormat},
		"truncated":           {func(b []byte) []byte { return b[:len(b)/2] }, ErrCorrupt},
		"shorter than header": {func(b []byte) []byte { return b[:headerSize-1] }, ErrCorrupt},
		"zero rows":           {func(b []byte) []byte { le.PutUint64(b[16:], 0); return b }, ErrCorrupt},
		"offset tampered":     {func(b []byte) []byte { b[80] ^= 0x40; return b }, ErrCorrupt},
		"perm out of range":   {func(b []byte) []byte { le.PutUint32(b[l.permOff:], 1000); return b }, ErrCorrupt},
		"perm duplicate":      {func(b []byte) []byte { copy(b[l.permOff+4:l.permOff+8], b[l.permOff:]); return b }, ErrCorrupt},
		"NaN step":            {setStep(math.NaN()), ErrCorrupt},
		"negative step":       {setStep(-1), ErrCorrupt},
		// 2⁶⁰ one-dimensional rows in one-row blocks: every region length
		// is a multiple of 2⁶³, so int64 offsets wrap to a file of a few
		// hundred bytes whose header agrees with computeLayout.
		"shape overflows": {func(b []byte) []byte {
			big := computeLayout(1<<60, 1, 1)
			copy(b, big.encodeHeader())
			return b[:big.fileSize]
		}, ErrCorrupt},
	}
}

// TestOpenRejectsCorruptFiles runs every corruptCases entry: each must fail
// with the sentinel of its class, ErrFormat or ErrCorrupt.
func TestOpenRejectsCorruptFiles(t *testing.T) {
	data, _ := testData(t, 50, 1, 5, 29)
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.qvs")
	if err := Write(path, data, BuildConfig{}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range corruptCases(computeLayout(data.Rows(), data.Cols(), defaultBlockRows)) {
		cp := filepath.Join(dir, "bad.qvs")
		buf := make([]byte, len(raw))
		copy(buf, raw)
		if err := os.WriteFile(cp, c.corrupt(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(cp)
		if err == nil {
			s.Close()
			t.Errorf("%s: Open accepted a corrupt file", name)
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: Open failed with %v, want an error wrapping %v", name, err, c.want)
		}
	}
}

// TestConcurrentSearchAndClose drives parallel searches to completion and
// then closes; under -race this exercises the mapping-lifetime lock.
func TestConcurrentSearchAndClose(t *testing.T) {
	data, queries := testData(t, 400, 16, 19, 31)
	path := filepath.Join(t.TempDir(), "c.qvs")
	if err := Write(path, data, BuildConfig{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := 0; qi < queries.Rows(); qi++ {
				res := s.Search(queries.RawRow(qi), 5, 50)
				if len(res) != 5 {
					t.Errorf("worker %d query %d: %d neighbors", w, qi, len(res))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st := s.Stats()
	if st.Scanned == 0 || st.Rescored == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

// TestStreamingWriterMatchesWrite pins the two construction paths against
// each other: Create+Append with externally accumulated scales must produce
// a byte-identical file to the whole-matrix Write path.
func TestStreamingWriterMatchesWrite(t *testing.T) {
	data, _ := testData(t, 256, 1, 17, 37)
	dir := t.TempDir()

	whole := filepath.Join(dir, "whole.qvs")
	if err := Write(whole, data, BuildConfig{Perm: reversePerm(17)}); err != nil {
		t.Fatal(err)
	}

	acc := NewScaleAccumulator(17)
	for i := 0; i < data.Rows(); i++ {
		acc.Add(data.RawRow(i))
	}
	mins, steps := acc.Scales(Int8)
	streamed := filepath.Join(dir, "streamed.qvs")
	w, err := Create(streamed, data.Rows(), 17, BuildConfig{Perm: reversePerm(17), Mins: mins, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.Rows(); i++ {
		if err := w.Append(data.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("file sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("files differ at byte %d", i)
		}
	}
}

// retiredFile writes a file, and returns its header, in the geometry the
// store had before its layouts were cut to one: codeBytes-wide codes and
// f32Dims leading dimensions in a float32 region between steps and codes,
// with every offset, the code stride and the file size exactly as that
// writer computed them — so the header is self-consistent and a retired
// field is the only reason to refuse it.
func retiredFile(t *testing.T, path string, n, d, codeBytes, f32Dims int) []byte {
	t.Helper()
	stride := align(int64(d-f32Dims)*int64(codeBytes), codeRowAlign)
	nBlocks := int64((n + defaultBlockRows - 1) / defaultBlockRows)
	permOff := int64(headerSize)
	minsOff := align(permOff+4*int64(d), sectionAlign)
	stepsOff := align(minsOff+8*int64(d), sectionAlign)
	f32Off := align(stepsOff+8*int64(d), sectionAlign)
	codesOff := align(f32Off+4*int64(f32Dims)*int64(n), sectionAlign)
	snormOff := align(codesOff+nBlocks*defaultBlockRows*stride, sectionAlign)
	exactOff := align(snormOff+8*int64(n), sectionAlign)
	fileSize := exactOff + 8*int64(n)*int64(d)

	h := computeLayout(n, d, defaultBlockRows).encodeHeader()
	le := binary.LittleEndian
	le.PutUint32(h[32:], uint32(codeBytes))
	le.PutUint32(h[36:], uint32(f32Dims))
	le.PutUint32(h[44:], uint32(stride))
	for i, off := range []int64{permOff, minsOff, stepsOff, f32Off, codesOff, snormOff, exactOff, fileSize} {
		le.PutUint64(h[48+8*i:], uint64(off))
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(h); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(fileSize); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOpenRejectsRetiredLayouts pins what happens to a file written before
// the int16 code width and the float32 head were removed: Open names the
// retired layout instead of mis-reading the regions.
func TestOpenRejectsRetiredLayouts(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]struct{ codeBytes, f32Dims int }{
		"int16 codes":      {2, 0},
		"float32 head":     {1, 4},
		"int16 with head":  {2, 4},
		"whole-width head": {1, 21},
	} {
		path := filepath.Join(dir, "retired.qvs")
		retiredFile(t, path, 50, 21, c.codeBytes, c.f32Dims)
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Errorf("%s: Open accepted a retired layout", name)
		} else if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "retired layout") {
			t.Errorf("%s: Open failed without an ErrFormat naming the retired layout: %v", name, err)
		}
	}
	// The helper itself is held to the live layout: at one-byte codes and no
	// float32 head it must produce the header Open accepts.
	if _, err := decodeHeader(retiredFile(t, filepath.Join(dir, "live.qvs"), 50, 21, 1, 0)); err != nil {
		t.Errorf("live-layout header rejected: %v", err)
	}
}

// formatDigest is the SHA-256 of the file TestFormatDigest writes, computed
// at the commit before the int16 width and the float32 head were removed.
// Format version 1 at int8 is frozen: a change to this constant is a format
// change and needs a version bump, not a new digest.
const formatDigest = "b1f5f696366a169cac2ad12b9740ed5d917d35f780f6558cc55500a4903d916f"

// TestFormatDigest writes a fixed 257×70 store — five 64-row blocks with a
// ragged last one, an 80-byte code stride with ten padding bytes, a
// constant dimension, values clamped at both ends of the code range — in
// variance order through Create/Append and compares the file's digest with
// the pinned one.
func TestFormatDigest(t *testing.T) {
	const n, d = 257, 70
	rng := rand.New(rand.NewSource(1801))
	rows := make([][]float64, n)
	acc := NewScaleAccumulator(d)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(1+j%9) * rng.NormFloat64()
		}
		rows[i][13] = 2.5
		if i < 200 {
			// Scales come from the first 200 rows, so later rows clamp.
			acc.Add(rows[i])
		}
	}
	cfg := BuildConfig{Perm: acc.VarianceOrder(), BlockRows: 64}
	cfg.Mins, cfg.Steps = acc.Scales(Int8)
	path := filepath.Join(t.TempDir(), "digest.qvs")
	w, err := Create(path, n, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != formatDigest {
		t.Errorf("store file digest %s, want %s: the on-disk format changed", got, formatDigest)
	}
	if formatVersion != 1 {
		t.Errorf("formatVersion = %d, want 1", formatVersion)
	}
}

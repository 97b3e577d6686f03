package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/linalg"
)

// Writer streams rows into a new store file without ever materializing the
// float64 matrix in memory: each Append encodes one row's codes, cached
// quantized norm, and exact bytes into per-region buffers that flush with
// positioned writes at the offsets the layout fixed up front. cmd/datagen
// uses it to emit million-point sets with O(d) memory.
//
// In the file, mins/steps (and codes) are stored in STORAGE order — aligned
// with the permutation — while BuildConfig supplies scales in original
// dimension order; Create converts.
type Writer struct {
	f *os.File
	l layout

	perm        []int
	mins, steps []float64 // storage order

	next int // rows appended so far

	codeBuf  regionBuf
	snormBuf regionBuf
	exactBuf regionBuf

	rowCodes []byte
	rowExact []byte
	rowSnorm [8]byte
}

// regionBuf batches sequential writes into one file region.
type regionBuf struct {
	f    *os.File
	off  int64 // next flush position
	buf  []byte
	fill int
}

func newRegionBuf(f *os.File, off int64, cap int) regionBuf {
	return regionBuf{f: f, off: off, buf: make([]byte, cap)}
}

func (r *regionBuf) write(p []byte) error {
	for len(p) > 0 {
		n := copy(r.buf[r.fill:], p)
		r.fill += n
		p = p[n:]
		if r.fill == len(r.buf) {
			if err := r.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *regionBuf) flush() error {
	if r.fill == 0 {
		return nil
	}
	if _, err := r.f.WriteAt(r.buf[:r.fill], r.off); err != nil {
		return err
	}
	r.off += int64(r.fill)
	r.fill = 0
	return nil
}

// Create opens a streaming writer for exactly n rows of d dimensions.
// cfg.Mins/cfg.Steps are required (the encoder must know its scales before
// the first row); use a ScaleAccumulator pass, or Write for in-memory data.
func Create(path string, n, d int, cfg BuildConfig) (*Writer, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("store: cannot create %dx%d store", n, d)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(d); err != nil {
		return nil, err
	}
	if cfg.Mins == nil {
		return nil, fmt.Errorf("store: Create requires precomputed Mins/Steps (see ScaleAccumulator)")
	}
	perm := cfg.Perm
	if perm == nil {
		perm = identityPerm(d)
	}
	// Reorder the scales into storage order once.
	mins := make([]float64, d)
	steps := make([]float64, d)
	for j := 0; j < d; j++ {
		mins[j] = cfg.Mins[perm[j]]
		steps[j] = cfg.Steps[perm[j]]
	}

	l := computeLayout(n, d, cfg.BlockRows)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(l.fileSize); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	const bufRows = 1024
	w := &Writer{
		f: f, l: l,
		perm: perm, mins: mins, steps: steps,
		codeBuf:  newRegionBuf(f, l.codesOff, bufRows*l.codeStride),
		snormBuf: newRegionBuf(f, l.snormOff, bufRows*8),
		exactBuf: newRegionBuf(f, l.exactOff, bufRows*8*d),
		rowCodes: make([]byte, l.codeStride),
		rowExact: make([]byte, 8*d),
	}
	return w, nil
}

// Append encodes one row. It must be called exactly n times before Close.
func (w *Writer) Append(row []float64) error {
	if len(row) != w.l.d {
		return fmt.Errorf("store: row has %d dims, store has %d", len(row), w.l.d)
	}
	if w.next >= w.l.n {
		return fmt.Errorf("store: appended more than %d rows", w.l.n)
	}
	le := binary.LittleEndian
	for j, x := range row {
		le.PutUint64(w.rowExact[8*j:], math.Float64bits(x))
	}
	if err := w.exactBuf.write(w.rowExact); err != nil {
		return err
	}
	// rowCodes[d:] is the stride padding; it is never written and stays zero.
	snorm := 0.0
	for j, pj := range w.perm {
		c := quantize(row[pj], w.mins[j], w.steps[j])
		v := w.steps[j] * float64(c)
		snorm += v * v
		w.rowCodes[j] = c
	}
	if err := w.codeBuf.write(w.rowCodes); err != nil {
		return err
	}
	le.PutUint64(w.rowSnorm[:], math.Float64bits(snorm))
	if err := w.snormBuf.write(w.rowSnorm[:]); err != nil {
		return err
	}
	w.next++
	return nil
}

// Close flushes every region, writes the header and metadata sections, and
// syncs the file. It fails if fewer than n rows were appended.
func (w *Writer) Close() error {
	if w.next != w.l.n {
		w.f.Close()
		return fmt.Errorf("store: %d of %d rows appended at Close", w.next, w.l.n)
	}
	for _, r := range []*regionBuf{&w.codeBuf, &w.snormBuf, &w.exactBuf} {
		if err := r.flush(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := writeMeta(w.f, w.l, w.perm, w.mins, w.steps); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Write builds a store file from an in-memory matrix: scales are computed
// from the data unless cfg supplies them, then every row streams through a
// Writer. This is the whole-matrix convenience path: the store and serve
// tests build their files with it, and no program does (the benchmark
// streams through Create and Append).
func Write(path string, data *linalg.Dense, cfg BuildConfig) error {
	n, d := data.Dims()
	cfg = cfg.withDefaults()
	if err := cfg.validate(d); err != nil {
		return err
	}
	if cfg.Mins == nil {
		acc := NewScaleAccumulator(d)
		for i := 0; i < n; i++ {
			acc.Add(data.RawRow(i))
		}
		cfg.Mins, cfg.Steps = acc.Scales(cfg.Precision)
	}
	w, err := Create(path, n, d, cfg)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := w.Append(data.RawRow(i)); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

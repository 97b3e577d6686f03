// Package store is the quantized vector storage layer: a block-major,
// per-dimension scalar-quantized point store with a binary on-disk format,
// an mmap-backed read path, and a two-phase search that scans compact
// integer codes and exactly rescores the admitted candidates against the
// full-precision float64 region.
//
// The design applies the paper's coherence thesis to storage: the
// semantically coherent components of a representation deserve full
// fidelity, the rest can be crushed. Each dimension j is stored as one
// unsigned byte code c with an affine scale (minⱼ, stepⱼ), so a point row
// costs 1 byte per dimension instead of 8. The dimensions are permuted into
// a caller-chosen storage order — in every recorded run the
// variance-descending order of ScaleAccumulator.VarianceOrder — so the
// leading codes carry most of the distance mass and one contiguous prefix
// of them prunes most rows before their full code row is touched: the
// static ordered-partition scan of Thomasian (PAPERS.md).
//
// Search is two-phase. Phase 1 scans the quantized blocks with the
// asymmetric decomposition
//
//	‖q − x̂‖² = Σⱼ aⱼ² − 2·Σⱼ tⱼ·cⱼ + Σⱼ (stepⱼ·cⱼ)²,  aⱼ = qⱼ − minⱼ, tⱼ = aⱼ·stepⱼ
//
// whose only per-point term is the dot Σ tⱼ·cⱼ (evaluated in integers by
// the linalg.DotQ15* kernels after quantizing tⱼ to 15 bits, AVX2 on
// capable hardware) plus a per-point norm cached at build time — the same
// norm-cache shape knn.SearchSetBatch uses.
// Phase 2 rescores the admitted candidates with the scalar Euclidean metric
// against the untouched float64 region and re-sorts under the canonical
// (distance, index) order, so with a full rescore budget the result is
// bit-identical to knn.SearchSetBatch, and with a partial budget only the
// candidate set — never a reported distance — is approximate.
//
// On-disk layout (all offsets 64-byte aligned, little-endian):
//
//	header | perm (d×u32) | mins (d×f64) | steps (d×f64)
//	       | codes (block-major: blocks of BlockRows rows, each row
//	         CodeStride bytes, zero-padded)
//	       | snorm (n×f64: Σ (stepⱼcⱼ)²)
//	       | exact (n×d×f64, row-major, original dimension order)
//
// The header also keeps the slots of two retired layouts, each with one
// legal value: the code width (always 1 byte, Int8) and the count and
// offset of a float32 head region between steps and codes (always zero
// dimensions, so the region is zero-length and its offset equals the codes
// offset). A file carrying an int16 code width or a non-empty float32 head
// is refused at Open by name and must be rebuilt.
//
// The mmap read path keeps the codes/snorm regions resident (they are
// scanned) while the exact region pages in lazily — only the rows that
// phase 2 actually rescores are ever touched, which is what cuts resident
// vector bytes by ~8× against a float64 store.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"unsafe"
)

// Precision is the header's code-width tag: bytes per stored code. Int8 is
// its only legal value.
type Precision uint8

// Int8 stores one byte per dimension (256 levels).
const Int8 Precision = 1

// String names the precision.
func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", uint8(p))
}

// Open's errors for a file it cannot serve wrap one of two sentinels, so a
// caller can tell a file to rebuild from a damaged one with errors.Is.
var (
	// ErrFormat marks a file this build does not read: bad magic, format
	// version, endian sentinel or precision, or a retired layout.
	ErrFormat = errors.New("store: unsupported file format")
	// ErrCorrupt marks a file whose size, offsets, shape, permutation or
	// scales are inconsistent.
	ErrCorrupt = errors.New("store: corrupt file")
)

// maxCode is the largest code value.
const maxCode = 255

const (
	magic         = "DRQS"
	formatVersion = 1
	// headerSize is the fixed byte length of the header block.
	headerSize = 256
	// endianSentinel is stored in the header and read back through the
	// zero-copy cast path at Open, so a build whose native byte order does
	// not match the file's little-endian layout fails loudly instead of
	// serving garbage distances.
	endianSentinel uint64 = 0x0102030405060708
	// defaultBlockRows is the block granularity of the code region: the
	// unit of scan parallelism and (later) compaction.
	defaultBlockRows = 4096
	// codeRowAlign pads each code row so rows start 16-byte aligned for the
	// SIMD loads.
	codeRowAlign = 16
	// sectionAlign aligns every region offset.
	sectionAlign = 64
)

// BuildConfig parameterizes store construction. The zero value stores the
// codes in the natural dimension order with min/max scales computed from
// the data.
type BuildConfig struct {
	// Precision is the code width; zero means Int8, the only legal value.
	Precision Precision
	// BlockRows is the number of rows per code block (default 4096).
	BlockRows int
	// Perm, if non-nil, is the storage order: storage dimension j holds
	// original dimension Perm[j]. Pass ScaleAccumulator.VarianceOrder so the
	// early-abandon prefix reads the dimensions that carry the distance
	// mass. Must be a permutation of [0, d).
	Perm []int
	// Mins and Steps, if non-nil, are externally computed per-dimension
	// scales in ORIGINAL dimension order (e.g. from a whitening transform,
	// or from a streaming min/max pass). Both or neither must be set; when
	// nil, Write computes min/max scales from the matrix. Create (the
	// streaming writer) requires them.
	Mins, Steps []float64
}

// withDefaults resolves zero fields.
func (c BuildConfig) withDefaults() BuildConfig {
	if c.Precision == 0 {
		c.Precision = Int8
	}
	if c.BlockRows <= 0 {
		c.BlockRows = defaultBlockRows
	}
	return c
}

func (c BuildConfig) validate(d int) error {
	if c.Precision != Int8 {
		return fmt.Errorf("store: unknown precision %d", c.Precision)
	}
	if c.Perm != nil {
		if len(c.Perm) != d {
			return fmt.Errorf("store: perm length %d for %d dims", len(c.Perm), d)
		}
		if !isPermutation(c.Perm) {
			return fmt.Errorf("store: perm is not a permutation of [0,%d)", d)
		}
	}
	if (c.Mins == nil) != (c.Steps == nil) {
		return fmt.Errorf("store: Mins and Steps must be set together")
	}
	if c.Mins != nil && (len(c.Mins) != d || len(c.Steps) != d) {
		return fmt.Errorf("store: scales have %d/%d entries for %d dims", len(c.Mins), len(c.Steps), d)
	}
	return nil
}

// layout is the resolved geometry of a store file.
type layout struct {
	n, d      int
	blockRows int
	// codeStride is the padded byte length of one code row.
	codeStride int

	permOff, minsOff, stepsOff int64
	codesOff                   int64
	snormOff, exactOff         int64
	fileSize                   int64
}

func align(x int64, a int64) int64 { return (x + a - 1) / a * a }

// computeLayout derives every section offset from the shape parameters.
func computeLayout(n, d, blockRows int) layout {
	l := layout{n: n, d: d, blockRows: blockRows}
	l.codeStride = int(align(int64(d), codeRowAlign))
	nBlocks := (n + blockRows - 1) / blockRows
	codesLen := int64(nBlocks) * int64(blockRows) * int64(l.codeStride)

	off := int64(headerSize)
	l.permOff = align(off, sectionAlign)
	off = l.permOff + 4*int64(d)
	l.minsOff = align(off, sectionAlign)
	off = l.minsOff + 8*int64(d)
	l.stepsOff = align(off, sectionAlign)
	off = l.stepsOff + 8*int64(d)
	l.codesOff = align(off, sectionAlign)
	off = l.codesOff + codesLen
	l.snormOff = align(off, sectionAlign)
	off = l.snormOff + 8*int64(n)
	l.exactOff = align(off, sectionAlign)
	l.fileSize = l.exactOff + 8*int64(n)*int64(d)
	return l
}

// encodeHeader serializes the layout into the fixed header block. Bytes
// 32–39 and 72–79 are the retired layouts' slots (see the package comment):
// code width Int8, zero float32 head dimensions, and a zero-length float32
// region sitting at the codes offset.
func (l layout) encodeHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	le := binary.LittleEndian
	le.PutUint32(h[4:], formatVersion)
	le.PutUint64(h[8:], endianSentinel)
	le.PutUint64(h[16:], uint64(l.n))
	le.PutUint64(h[24:], uint64(l.d))
	le.PutUint32(h[32:], uint32(Int8))
	le.PutUint32(h[36:], 0)
	le.PutUint32(h[40:], uint32(l.blockRows))
	le.PutUint32(h[44:], uint32(l.codeStride))
	le.PutUint64(h[48:], uint64(l.permOff))
	le.PutUint64(h[56:], uint64(l.minsOff))
	le.PutUint64(h[64:], uint64(l.stepsOff))
	le.PutUint64(h[72:], uint64(l.codesOff))
	le.PutUint64(h[80:], uint64(l.codesOff))
	le.PutUint64(h[88:], uint64(l.snormOff))
	le.PutUint64(h[96:], uint64(l.exactOff))
	le.PutUint64(h[104:], uint64(l.fileSize))
	return h
}

// decodeHeader parses and validates a header block.
func decodeHeader(h []byte) (layout, error) {
	var l layout
	if len(h) < headerSize {
		return l, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(h))
	}
	if string(h[:4]) != magic {
		return l, fmt.Errorf("%w: bad magic %q", ErrFormat, h[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(h[4:]); v != formatVersion {
		return l, fmt.Errorf("%w: version %d (want %d)", ErrFormat, v, formatVersion)
	}
	if s := le.Uint64(h[8:]); s != endianSentinel {
		return l, fmt.Errorf("%w: endian sentinel mismatch (%#x)", ErrFormat, s)
	}
	prec, f32Dims := le.Uint32(h[32:]), le.Uint32(h[36:])
	if prec != uint32(Int8) && prec != 2 {
		return l, fmt.Errorf("%w: unknown precision %d", ErrFormat, prec)
	}
	if prec == 2 || f32Dims > 0 {
		return l, fmt.Errorf("%w: retired layout (%d-byte codes, %d float32 head dims): "+
			"int16 codes and the float32 head are no longer read, rebuild the file", ErrFormat, prec, f32Dims)
	}
	l.n = int(le.Uint64(h[16:]))
	l.d = int(le.Uint64(h[24:]))
	l.blockRows = int(le.Uint32(h[40:]))
	l.codeStride = int(le.Uint32(h[44:]))
	l.permOff = int64(le.Uint64(h[48:]))
	l.minsOff = int64(le.Uint64(h[56:]))
	l.stepsOff = int64(le.Uint64(h[64:]))
	f32Off := int64(le.Uint64(h[72:]))
	l.codesOff = int64(le.Uint64(h[80:]))
	l.snormOff = int64(le.Uint64(h[88:]))
	l.exactOff = int64(le.Uint64(h[96:]))
	l.fileSize = int64(le.Uint64(h[104:]))

	if l.n <= 0 || l.d <= 0 || l.blockRows <= 0 || !shapeFits(l.n, l.d, l.blockRows) {
		return l, fmt.Errorf("%w: invalid shape n=%d d=%d blockRows=%d", ErrCorrupt, l.n, l.d, l.blockRows)
	}
	if want := computeLayout(l.n, l.d, l.blockRows); want != l || f32Off != l.codesOff {
		return l, fmt.Errorf("%w: header offsets disagree with computed layout", ErrCorrupt)
	}
	return l, nil
}

// maxRegionBytes bounds each region of a file Open accepts: far above any
// real store, and far enough below 2⁶³ that computeLayout's int64 sums of
// a few such regions cannot wrap.
const maxRegionBytes = 1 << 56

// shapeFits reports that the code region and the exact region of an n×d
// store in blocks of blockRows rows (n, d, blockRows > 0) stay under
// maxRegionBytes, multiplied out in 128 bits. Without it a header can name
// a shape whose int64 region sizes wrap to a few hundred bytes and agree
// with computeLayout, and Open slices the mapping with a negative bound.
func shapeFits(n, d, blockRows int) bool {
	below := func(factors ...uint64) bool {
		p := uint64(1)
		for _, f := range factors {
			hi, lo := bits.Mul64(p, f)
			if hi != 0 || lo >= maxRegionBytes {
				return false
			}
			p = lo
		}
		return true
	}
	return below(uint64(n/blockRows)+1, uint64(blockRows), uint64(d)+codeRowAlign) && below(uint64(n), uint64(d), 8)
}

// endianSentinelNative reads the header sentinel through the same
// native-order cast the data regions use; a mismatch means this build's
// byte order cannot zero-copy the little-endian file.
func endianSentinelNative(h []byte) uint64 {
	return *(*uint64)(unsafe.Pointer(&h[8]))
}

// Zero-copy views over aligned byte regions. Offsets are 64-byte aligned
// by construction, so the casts never misalign.

func castF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func castU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// quantize maps x to its code under (min, step), clamped to the code range.
// step == 0 marks a constant dimension; its code is always 0 and dequant
// returns min exactly.
func quantize(x, min, step float64) uint8 {
	if step == 0 {
		return 0
	}
	c := math.Round((x - min) / step)
	if c < 0 {
		return 0
	}
	if c > maxCode {
		return maxCode
	}
	return uint8(c)
}

// ScaleAccumulator builds min/max scales from a stream of rows, so callers
// (cmd/datagen) can fix scales in a first pass without holding the matrix.
// It also tracks per-dimension first and second moments, from which
// VarianceOrder derives a variance-descending storage permutation — the
// order that concentrates signal into the leading quantized dimensions
// the scan's early-abandon prefix reads.
type ScaleAccumulator struct {
	mins, maxs []float64
	sum, sumsq []float64
	n          int
}

// NewScaleAccumulator tracks d dimensions.
func NewScaleAccumulator(d int) *ScaleAccumulator {
	a := &ScaleAccumulator{
		mins: make([]float64, d), maxs: make([]float64, d),
		sum: make([]float64, d), sumsq: make([]float64, d),
	}
	for j := range a.mins {
		a.mins[j] = math.Inf(1)
		a.maxs[j] = math.Inf(-1)
	}
	return a
}

// Add folds one row into the running extrema and moments.
func (a *ScaleAccumulator) Add(row []float64) {
	if len(row) != len(a.mins) {
		panic(fmt.Sprintf("store: scale accumulator row has %d dims, want %d", len(row), len(a.mins)))
	}
	for j, x := range row {
		if x < a.mins[j] {
			a.mins[j] = x
		}
		if x > a.maxs[j] {
			a.maxs[j] = x
		}
		a.sum[j] += x
		a.sumsq[j] += x * x
	}
	a.n++
}

// VarianceOrder returns a storage permutation sorting dimensions by
// descending empirical variance (ties broken by ascending dimension
// index, so the order is deterministic). Building a store with this
// permutation front-loads the high-variance dimensions, which is what
// makes partial-distance prefixes admissible *and* effective: per
// Thomasian's stepwise-dimensionality argument, the prefix of a
// variance-sorted order captures most of the distance mass, so prefix
// lower bounds reject most points early. Exact results are unaffected by
// any permutation — it only reorders storage.
func (a *ScaleAccumulator) VarianceOrder() []int {
	d := len(a.mins)
	vars := make([]float64, d)
	if a.n > 0 {
		inv := 1 / float64(a.n)
		for j := range vars {
			mean := a.sum[j] * inv
			v := a.sumsq[j]*inv - mean*mean
			if v > 0 {
				vars[j] = v
			}
		}
	}
	perm := identityPerm(d)
	sort.SliceStable(perm, func(x, y int) bool {
		if vars[perm[x]] > vars[perm[y]] {
			return true
		}
		if vars[perm[x]] < vars[perm[y]] {
			return false
		}
		return perm[x] < perm[y]
	})
	return perm
}

// Scales finalizes (min, step) per dimension, in original dimension order:
// step = (max − min) / 255, so codes span the full range and the round-trip
// error is at most step/2 per dimension. Constant (or never-observed)
// dimensions get step 0. The argument names the code width; Int8 is the
// only one, so it does not enter the result.
func (a *ScaleAccumulator) Scales(Precision) (mins, steps []float64) {
	mins = make([]float64, len(a.mins))
	steps = make([]float64, len(a.mins))
	for j := range mins {
		lo, hi := a.mins[j], a.maxs[j]
		if a.n == 0 || lo > hi {
			lo, hi = 0, 0
		}
		mins[j] = lo
		if hi > lo {
			steps[j] = (hi - lo) / maxCode
		}
	}
	return mins, steps
}

// isPermutation reports whether perm holds every value of [0, len(perm))
// exactly once.
func isPermutation(perm []int) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// identityPerm returns [0, 1, ..., d).
func identityPerm(d int) []int {
	p := make([]int, d)
	for i := range p {
		p[i] = i
	}
	return p
}

// writeMeta is Writer finalization's last step: flush the header and the
// small metadata sections.
func writeMeta(f *os.File, l layout, perm []int, mins, steps []float64) error {
	if _, err := f.WriteAt(l.encodeHeader(), 0); err != nil {
		return err
	}
	le := binary.LittleEndian
	pb := make([]byte, 4*l.d)
	for j, p := range perm {
		le.PutUint32(pb[4*j:], uint32(p))
	}
	if _, err := f.WriteAt(pb, l.permOff); err != nil {
		return err
	}
	fb := make([]byte, 8*l.d)
	for j, v := range mins {
		le.PutUint64(fb[8*j:], math.Float64bits(v))
	}
	if _, err := f.WriteAt(fb, l.minsOff); err != nil {
		return err
	}
	for j, v := range steps {
		le.PutUint64(fb[8*j:], math.Float64bits(v))
	}
	if _, err := f.WriteAt(fb, l.stepsOff); err != nil {
		return err
	}
	return nil
}

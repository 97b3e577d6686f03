package store

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/linalg"
)

// prefixAux is the per-row side record of the early-abandon pass, packed
// to 12 bytes so the prefix sweep streams P+12 bytes per row. The code
// sums are exact: csumP ≤ 255·P and csumSuf ≤ 255·(d−P) both fit uint32
// with room to spare. snormP is the one lossy field — it is
// rounded toward zero at build time (never up), so the lower bound it
// enters can only loosen; admissibility never depends on float32 having
// enough precision.
type prefixAux struct {
	snormP         float32
	csumP, csumSuf uint32
}

// Store is an opened, mmap-backed quantized vector store. All search
// methods are safe for concurrent use; Close waits for in-flight searches
// and unmaps the file.
type Store struct {
	path string
	l    layout
	mm   mapping

	perm        []int
	mins, steps []float64 // storage order

	codes []byte
	snorm []float64
	exact []float64
	// exactMat is a zero-copy Dense view over the exact region; reading it
	// pages the float64 rows in on demand.
	exactMat *linalg.Dense

	// Scan-side caches built once by Open and read-only afterwards.
	//
	// scanAux interleaves, per row, the two scalars the integer-dot scan
	// needs next to each other on one cache line: {snorm[i], csum[i]} at
	// [2i, 2i+1], where csum[i] = Σⱼ cⱼ is the row's code sum — the exact
	// correction term that turns the integer dot Σu·c back into Σt̃·c
	// (see plan.quantizeQ15). Code sums are ≤ 255·d, exact in float64.
	scanAux []float64

	// The early-abandon prefix: the first prefDims storage dimensions
	// (0 disables the pass). pref8 holds a contiguous copy of those
	// leading codes — stride prefDims, no padding — so the
	// prefix pass streams ~P bytes per row instead of faulting the full
	// codeStride row. prefAux holds one packed 12-byte record per row
	// (see prefixAux) with the prefix parts of snorm and csum plus the
	// suffix code sum csum−csumP that scales the admissible slack
	// (prefix lower bound = prefix estimate − tstep·csumSuf, see
	// scanBlockPrefix).
	prefDims int
	pref8    []uint8
	prefAux  []prefixAux
	// snormMean scales the floating-point safety margin subtracted from
	// prefix lower bounds.
	snormMean float64

	// planPool, scratchPool, collPool, and parPool recycle per-query
	// plans, per-segment block buffers, candidate collectors, and
	// parallel fan-out state so the serving hot path does not allocate.
	planPool    sync.Pool
	scratchPool sync.Pool
	collPool    sync.Pool
	parPool     sync.Pool

	// mu guards the mapping's lifetime: searches hold the read lock, Close
	// takes the write lock, so the pages can never vanish under a scan.
	mu     sync.RWMutex
	closed bool

	// scanned and rescored count points offered to phase 1 and candidates
	// exactly rescored in phase 2 since Open.
	scanned  atomic.Uint64
	rescored atomic.Uint64

	// exactCold is set by DropExactPages and makes every later rescore
	// queue read-ahead for its candidate rows before touching them (cold
	// rows otherwise fault serially under MADV_RANDOM). Never cleared:
	// once residency is being managed externally, the hint stays cheap
	// relative to the faults it hides.
	exactCold atomic.Bool
}

// Open maps a store file written by Writer/Write.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("store: reading header of %s: %w", path, err)
	}
	l, err := decodeHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if st.Size() != l.fileSize {
		return nil, fmt.Errorf("store: %s is %d bytes, header says %d", path, st.Size(), l.fileSize)
	}
	if endianSentinelNative(hdr) != endianSentinel {
		return nil, fmt.Errorf("store: %s: native byte order does not match the little-endian file layout", path)
	}
	mm, err := mapFile(f, l.fileSize)
	if err != nil {
		return nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	b := mm.bytes
	s := &Store{path: path, l: l, mm: mm}
	permU32 := castU32(b[l.permOff : l.permOff+4*int64(l.d)])
	s.perm = make([]int, l.d)
	for j, p := range permU32 {
		s.perm[j] = int(p)
	}
	s.mins = castF64(b[l.minsOff : l.minsOff+8*int64(l.d)])
	s.steps = castF64(b[l.stepsOff : l.stepsOff+8*int64(l.d)])
	// Every query indexes through perm and multiplies by the scales, so a
	// damaged metadata region must fail here, not as an out-of-range panic
	// inside a shard worker or as silently wrong distances.
	if err := validateMeta(s.perm, s.mins, s.steps); err != nil {
		mm.close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	nBlocks := int64((l.n + l.blockRows - 1) / l.blockRows)
	s.codes = b[l.codesOff : l.codesOff+nBlocks*int64(l.blockRows)*int64(l.codeStride)]
	s.snorm = castF64(b[l.snormOff : l.snormOff+8*int64(l.n)])
	s.exact = castF64(b[l.exactOff : l.exactOff+8*int64(l.n)*int64(l.d)])
	//drlint:ignore unsafelife exactMat lives inside Store, whose mu gates every read against Close unmapping
	s.exactMat = linalg.NewDenseData(l.n, l.d, s.exact)
	s.buildScanCaches()
	// Phase-2 rescores fault scattered exact rows; without this hint the
	// kernel's readahead window repopulates the whole region.
	mm.adviseRandom(l.exactOff, l.fileSize)
	return s, nil
}

// prefixDims picks the early-abandon prefix width — a multiple of the
// kernels' 16-code step, wide enough that a variance-descending
// permutation concentrates most of the signal in it, and 0 (disabled)
// when the store is too narrow for a prefix to be a meaningful subset.
// On the musk-like distribution the leading 32/64 storage dimensions
// carry ~66%/91% of the variance; at 1M points the wider prefix cuts
// tight-bound survivors from ~16% to under 1%, which more than pays for
// streaming the wider plane.
func prefixDims(d int) int {
	switch {
	case d < 64:
		return 0
	case d < 128:
		return 32
	default:
		return 64
	}
}

// adviseHuge marks a freshly allocated scan cache as a transparent
// huge-page candidate. The caches are streamed front to back on every
// query; on 4 kB pages the million-row sweep takes a dTLB walk every few
// dozen rows, which 2 MB pages mostly remove. Best-effort and purely
// advisory — correctness never depends on it.
func adviseHuge[T any](s []T) {
	if len(s) == 0 {
		return
	}
	madviseHugepage(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])),
		len(s)*int(unsafe.Sizeof(s[0]))))
}

// buildScanCaches derives the integer-scan side tables from the mapped
// regions in one sequential pass over the code rows: per-row code sums
// (the exact correction term of the quantized-query dot), and — when the
// store is wide enough — the contiguous early-abandon prefix plane with
// its per-row prefix norms and code sums. Runs once at Open; everything
// it writes is immutable afterwards.
func (s *Store) buildScanCaches() {
	n, d := s.l.n, s.l.d
	s.scanAux = make([]float64, 2*n)
	adviseHuge(s.scanAux)
	P := prefixDims(d)
	s.prefDims = P
	if P > 0 {
		s.prefAux = make([]prefixAux, n)
		adviseHuge(s.prefAux)
		s.pref8 = make([]uint8, n*P)
		adviseHuge(s.pref8)
	}
	// Quantization steps of the prefix dimensions, in storage order.
	psteps := s.steps[:P]
	var snormSum float64
	for i := 0; i < n; i++ {
		var csum, csumP, snormP float64
		row := s.codes[i*s.l.codeStride : i*s.l.codeStride+d]
		for _, c := range row {
			csum += float64(c)
		}
		for j, step := range psteps {
			c := float64(row[j])
			csumP += c
			sc := step * c
			snormP += sc * sc
		}
		s.scanAux[2*i] = s.snorm[i]
		s.scanAux[2*i+1] = csum
		snormSum += s.snorm[i]
		if P > 0 {
			copy(s.pref8[i*P:(i+1)*P], row[:P])
			sn := float32(snormP)
			if float64(sn) > snormP {
				sn = math.Nextafter32(sn, 0)
			}
			s.prefAux[i] = prefixAux{
				snormP:  sn,
				csumP:   uint32(csumP),
				csumSuf: uint32(csum - csumP),
			}
		}
	}
	if n > 0 {
		s.snormMean = snormSum / float64(n)
	}
}

// validateMeta checks the metadata regions of a mapped file: perm must be
// a permutation of the dimensions, and every scale finite with a
// non-negative step.
func validateMeta(perm []int, mins, steps []float64) error {
	if !isPermutation(perm) {
		return fmt.Errorf("perm region is not a permutation of [0,%d) (corrupt file)", len(perm))
	}
	for j := range mins {
		if math.IsNaN(mins[j]) || math.IsInf(mins[j], 0) || math.IsInf(steps[j], 0) || !(steps[j] >= 0) {
			return fmt.Errorf("scale of storage dimension %d is min=%v step=%v (corrupt file)", j, mins[j], steps[j])
		}
	}
	return nil
}

// Close unmaps the store after in-flight searches drain. Safe to call twice.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.mm.close()
}

// Len returns the number of stored points.
func (s *Store) Len() int { return s.l.n }

// Dims returns the ambient dimensionality.
func (s *Store) Dims() int { return s.l.d }

// BytesPerVectorScan returns the bytes per point that a phase-1 scan keeps
// resident: the padded code row, the cached {norm, code-sum} pair, and —
// when the early-abandon pass is enabled — the prefix code plane with its
// packed 12-byte aux record. The float64
// alternative is 8·d; their ratio is the store's resident-memory win.
// (An abandoning scan touches far fewer bytes than this on most rows;
// this is the resident footprint, not the traffic.)
func (s *Store) BytesPerVectorScan() int {
	b := s.l.codeStride + 16
	if s.prefDims > 0 {
		b += s.prefDims + 12
	}
	return b
}

// PrefixDims returns the width of the early-abandon prefix (0 when the
// pass is disabled for this store's shape).
func (s *Store) PrefixDims() int { return s.prefDims }

// ExactMatrix returns a zero-copy Dense view over the full-precision
// region (row-major, original dimension order). Reading it faults pages in
// on demand; it is how ground-truth computations run over a store without
// a second copy of the data. The view is only valid until Close; callers
// that need to outlive the store must copy.
//
//drlint:ignore unsafelife documented zero-copy escape hatch; valid until Close by contract
func (s *Store) ExactMatrix() *linalg.Dense { return s.exactMat }

// DequantRow reconstructs point i from its codes, in original dimension
// order. The per-dimension reconstruction error is bounded by stepⱼ/2 — the
// property the round-trip tests pin.
func (s *Store) DequantRow(i int) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		panic("store: DequantRow on closed store")
	}
	if i < 0 || i >= s.l.n {
		panic(fmt.Sprintf("store: row %d outside [0,%d)", i, s.l.n))
	}
	out := make([]float64, s.l.d)
	row := s.codes[i*s.l.codeStride:]
	for j, pj := range s.perm {
		out[pj] = s.mins[j] + s.steps[j]*float64(row[j])
	}
	return out
}

// Steps returns the per-dimension quantization steps in original dimension
// order (a copy); a step of 0 marks a constant dimension.
func (s *Store) Steps() []float64 {
	out := make([]float64, s.l.d)
	for j, v := range s.steps {
		out[s.perm[j]] = v
	}
	return out
}

// Stats reports cumulative scan work since Open.
type Stats struct {
	// Scanned counts points whose quantized distance was evaluated.
	Scanned uint64
	// Rescored counts candidates refined against the exact region.
	Rescored uint64
}

// Stats returns a point-in-time snapshot of the scan counters.
func (s *Store) Stats() Stats {
	return Stats{Scanned: s.scanned.Load(), Rescored: s.rescored.Load()}
}

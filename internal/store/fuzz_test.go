package store

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/linalg"
)

// FuzzOpen holds Open to its contract on damaged files: it either returns a
// store that serves a Search, or an error that wraps ErrFormat or
// ErrCorrupt — never a panic, a fault in the mapping or an untyped error.
// The corpus is two real files, one narrow and one wide enough for the
// early-abandon prefix in blocks smaller than n, and every corruptCases
// entry of the narrow one, and the wide one with garbage in the error
// radius's header bytes: the fuzzer flips bit flip%8 of byte flip/8 and
// keeps the first cut bytes (all of them when cut is past the end), on top
// of its own mutations.
func FuzzOpen(f *testing.F) {
	narrow, _ := testData(f, 50, 1, 5, 29)
	wide, _ := testData(f, 20, 1, 64, 31)
	files := [][]byte{
		readStore(f, buildStore(f, narrow, BuildConfig{})),
		readStore(f, buildStore(f, wide, BuildConfig{BlockRows: 8, Perm: reversePerm(64)})),
	}
	for _, raw := range files {
		f.Add(raw, uint32(0), uint32(len(raw)))
	}
	cases := corruptCases(computeLayout(narrow.Rows(), narrow.Cols(), defaultBlockRows))
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bad := cases[name].corrupt(append([]byte(nil), files[0]...))
		f.Add(bad, uint32(0), uint32(len(bad)))
	}
	// Some of these Open accepts (+Inf, the smallest subnormal, −0, 10³⁰⁰)
	// and some it refuses (NaN payloads, negative values); a wrong but
	// accepted radius may change answers, never the contract above.
	for _, garbage := range []uint64{
		0x7ff0000000000000, 1, 1 << 63, 0x7e37e43c8800759c,
		0x7ff8000000000001, 0xfff0000000000000, 0xdeadbeefcafef00d, 0x0123456789abcdef,
	} {
		bad := append([]byte(nil), files[1]...)
		binary.LittleEndian.PutUint64(bad[radiusOff:], garbage)
		f.Add(bad, uint32(0), uint32(len(bad)))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, flip, cut uint32) {
		if len(raw) > 0 {
			raw[flip/8%uint32(len(raw))] ^= 1 << (flip % 8)
		}
		if int64(cut) < int64(len(raw)) {
			raw = raw[:cut]
		}
		path := filepath.Join(dir, "fuzz.qvs")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed with %v, which wraps neither ErrFormat nor ErrCorrupt", err)
			}
			return
		}
		defer s.Close()
		q := make([]float64, s.Dims())
		for j := range q {
			q[j] = float64(j%7) - 3
		}
		s.Search(q, 3, 10)
	})
}

// FuzzRefineCut holds the sweep's cut and the refine step's stop to the
// answers without them. Each input builds a 2100-row store of width
// 1 + dims%130 — past the 32- and 64-code prefixes — from seeded Gaussian
// rows with scales and variance order taken from those rows, as a store
// is built in use, and then edited three bytes at a time (op, row, source):
// a row becomes a copy of another, a zero row, or gets one +Inf, −Inf or
// NaN value, which gives the store an infinite radius and turns the cut
// and the stop off. On odd seeds every ninth row is dead. SearchLive on
// that store and on the same file with its radius zeroed (no cut, no stop)
// must return the same rows with the same distance bits at budgets k, 4k
// and every live row and at one and two workers, for k = 1 + k%16 and
// three queries: a stored row as written, the first row decoded from its
// codes, and a fresh Gaussian row. The fuzzer raises GOMAXPROCS to at
// least 2, so two workers are two real segments. The second seed is a
// width-1 store, where rows share codes and estimates tie at the budget's
// bound: it failed before the collector's heap ordered ties by index.
func FuzzRefineCut(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	f.Add(int64(1), uint8(40), uint8(9), []byte{})
	f.Add(int64(-91), uint8(0), uint8(9), []byte{})
	f.Add(int64(2), uint8(63), uint8(0), []byte{0, 1, 2, 1, 3, 4, 2, 5, 6, 0, 7, 7})
	f.Add(int64(3), uint8(129), uint8(4), []byte{0, 9, 9, 0, 10, 9, 0, 11, 9, 0, 12, 9})
	f.Add(int64(5), uint8(71), uint8(9), []byte{3, 0, 0, 3, 1, 0})
	f.Add(int64(6), uint8(64), uint8(9), []byte{5, 30, 0})
	f.Add(int64(7), uint8(99), uint8(2), []byte{7, 200, 0})
	f.Fuzz(func(t *testing.T, seed int64, dims, kk uint8, edits []byte) {
		n, d, k := 2100, 1+int(dims)%130, 1+int(kk)%16
		rng := rand.New(rand.NewSource(seed))
		data := linalg.NewDense(n, d)
		acc := NewScaleAccumulator(d)
		for i := 0; i < n; i++ {
			row := data.RawRow(i)
			for j := range row {
				row[j] = rng.NormFloat64() * float64(1+j%7)
			}
			acc.Add(row)
		}
		cfg := BuildConfig{Perm: acc.VarianceOrder()}
		cfg.Mins, cfg.Steps = acc.Scales(Int8)
		for e := 0; e+3 <= min(len(edits), 3*64); e += 3 {
			row, src := data.RawRow(int(edits[e+1])*n/256), data.RawRow(int(edits[e+2])*n/256)
			switch j := int(edits[e+2]) % d; edits[e] % 8 {
			case 0, 1, 2:
				copy(row, src)
			case 3, 4:
				clear(row)
			case 5:
				row[j] = math.Inf(1)
			case 6:
				row[j] = math.Inf(-1)
			case 7:
				row[j] = math.NaN()
			}
		}
		var dead []int
		for i := 4; seed%2 != 0 && i < n; i += 9 {
			dead = append(dead, i)
		}
		live := n - len(dead)
		s := buildStore(t, data, cfg)
		ref := reopenWithoutRadius(t, s)
		fresh := make([]float64, d)
		for j := range fresh {
			fresh[j] = rng.NormFloat64() * float64(1+j%7)
		}
		for qi, q := range [][]float64{data.RawRow(int(uint64(seed) % uint64(n))), s.DequantRow(0), fresh} {
			for _, budget := range []int{k, 4 * k, live} {
				for _, workers := range []int{1, 2} {
					want, _ := ref.SearchLive(q, 0, n, k, budget, workers, dead)
					got, _ := s.SearchLive(q, 0, n, k, budget, workers, dead)
					if len(got) != len(want) {
						t.Fatalf("query %d budget=%d w=%d: %d neighbors, %d without the radius", qi, budget, workers, len(got), len(want))
					}
					for r := range got {
						if got[r].Index != want[r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
							t.Fatalf("query %d budget=%d w=%d rank %d: %+v, %+v without the radius (radius %v)",
								qi, budget, workers, r, got[r], want[r], s.radius)
						}
					}
				}
			}
		}
	})
}

// readStore returns the bytes of an open store's file.
func readStore(tb testing.TB, s *Store) []byte {
	tb.Helper()
	raw, err := os.ReadFile(s.path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

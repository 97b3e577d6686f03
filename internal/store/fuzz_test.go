package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
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

// readStore returns the bytes of an open store's file.
func readStore(tb testing.TB, s *Store) []byte {
	tb.Helper()
	raw, err := os.ReadFile(s.path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

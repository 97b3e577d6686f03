//go:build linux

package store

import (
	"syscall"
	"unsafe"
)

// madviseDontneed discards the page-cache residency of a page-aligned
// read-only file mapping (the data stays on disk and faults back in on the
// next touch). Best-effort: errors are ignored.
func madviseDontneed(b []byte) {
	madvise(b, syscall.MADV_DONTNEED)
}

// madviseRandom disables readahead on the range, so a row fault maps in
// that row's page rather than a 128 kB window around it.
func madviseRandom(b []byte) {
	madvise(b, syscall.MADV_RANDOM)
}

// madviseWillneed starts asynchronous read-ahead of the range. Issued
// for each phase-2 row rescoreAhead rows before the refine step reaches
// it, it turns serial demand faults (each a blocking disk round-trip on a
// cold store) into overlapping reads.
func madviseWillneed(b []byte) {
	madvise(b, syscall.MADV_WILLNEED)
}

// madviseHugepage asks for transparent huge pages on an anonymous range.
// The scan-side caches are tens of MB streamed once per query; with the
// kernel's default "madvise" THP policy they would sit on 4 kB pages and
// pay a TLB walk every 64 rows of the prefix sweep.
func madviseHugepage(b []byte) {
	const madvHugepage = 14
	madvise(b, madvHugepage)
}

func madvise(b []byte, advice int) {
	if len(b) == 0 {
		return
	}
	syscall.Syscall(syscall.SYS_MADVISE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(advice))
}

// fadviseDontneed evicts the clean page-cache pages of path's [off, off+n)
// range. madvise(MADV_DONTNEED) alone only unmaps: the pages stay cached,
// and the kernel's fault-around batch-maps cached neighbors back on the
// next touch, so a residency measurement would quietly recover the whole
// region. Must run after the range is unmapped (mapped pages are skipped).
// Best-effort: errors are ignored.
func fadviseDontneed(path string, off, n int64) {
	fd, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		return
	}
	defer syscall.Close(fd)
	const posixFadvDontneed = 4
	syscall.Syscall6(syscall.SYS_FADVISE64,
		uintptr(fd), uintptr(off), uintptr(n), posixFadvDontneed, 0, 0)
}

//go:build linux

package trace

import "syscall"

// releasePages drops the whole pages inside data[start:end] from the
// process's resident set (MADV_DONTNEED). data is a read-only file mapping,
// so its bytes are unchanged: a later read faults them back in from the page
// cache. Failures are ignored.
func releasePages(data []byte, start, end int) {
	ps := syscall.Getpagesize()
	if lo, hi := (start+ps-1)/ps*ps, end/ps*ps; lo < hi {
		_ = syscall.Madvise(data[lo:hi], syscall.MADV_DONTNEED)
	}
}

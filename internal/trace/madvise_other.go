//go:build !linux

package trace

// releasePages is a no-op where Madvise is not portably available.
func releasePages(data []byte, start, end int) {}

//go:build !unix

package trace

import "errors"

// Platforms without mmap fall back to the streamed decode paths; ReadFile
// treats this error exactly like a non-regular file.
var errMmapUnsupported = errors.New("trace: mmap not supported on this platform")

func mmapFile(fd int, length int) ([]byte, error) { return nil, errMmapUnsupported }

func munmapFile(data []byte) error { return nil }

package trace

import (
	"bufio"
	"bytes"
	"io"
)

// ioBufSize is the one buffered-I/O size used by every codec in this
// package (text, bin, chunk frames, gzip unwrapping). 1 MiB amortizes
// syscalls over whole chunks — the bin codec's frames approach
// MaxChunkPayload, and anything smaller forces a mid-frame refill — while
// staying far below the per-consumer memory budget documented for
// streaming sources (O(catalog + chunk)). Historically the detection
// paths used 64 KiB and the codecs 1 MiB; the split bought nothing and
// made resizing a four-site hunt.
const ioBufSize = 1 << 20

// newBufReader wraps r for buffered reads, passing an existing
// *bufio.Reader through untouched so stacked codec layers (auto-detect →
// gzip → bin) never double-buffer. Bytes already in memory get a buffer no
// longer than they are: a 50-byte federation ack needs no 1 MiB buffer.
func newBufReader(r io.Reader) *bufio.Reader {
	switch r := r.(type) {
	case *bufio.Reader:
		return r
	case *bytes.Reader:
		return bufio.NewReaderSize(r, min(r.Len(), ioBufSize))
	}
	return bufio.NewReaderSize(r, ioBufSize)
}

// newBufWriter wraps w for buffered writes, passing an existing
// *bufio.Writer through untouched.
func newBufWriter(w io.Writer) *bufio.Writer {
	if bw, ok := w.(*bufio.Writer); ok {
		return bw
	}
	return bufio.NewWriterSize(w, ioBufSize)
}

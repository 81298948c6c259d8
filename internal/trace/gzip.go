package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// Format auto-detection: tools accept v1 text, filecule-bin/v1, and gzip
// framing of either, without flags. Gzip is detected by its magic bytes,
// the binary format by its magic line; everything else is treated as text
// (whose own header check produces the error message).

// sniff is the one format detection: it looks through gzip framing when r
// has it and reports whether the plain stream br underneath starts with
// the filecule-bin magic. zr is the gzip reader the caller must close once
// done with br, nil when the input was not compressed.
func sniff(r io.Reader) (br *bufio.Reader, isBin bool, zr io.Closer, err error) {
	br = newBufReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, false, nil, err
		}
		zr, br = gz, newBufReader(gz)
	}
	head, _ := br.Peek(len(binMagic))
	return br, string(head) == binMagic, zr, nil
}

// ReadAuto parses a trace from v1 text, filecule-bin/v1, or a
// gzip-compressed stream of either.
func ReadAuto(r io.Reader) (*Trace, error) {
	br, isBin, zr, err := sniff(r)
	if err != nil {
		return nil, err
	}
	if zr != nil {
		defer zr.Close()
	}
	if isBin {
		return ReadBin(br)
	}
	return Read(br)
}

// NewSource opens a streaming Source over r with the same auto-detection
// as ReadAuto: text input yields a Scanner, binary input a BinSource, and
// gzip framing of either is unwrapped transparently. Closing the returned
// source also closes the gzip reader when one was opened.
func NewSource(r io.Reader) (Source, error) {
	br, isBin, zr, err := sniff(r)
	if err != nil {
		return nil, err
	}
	var src Source
	if isBin {
		src, err = NewBinSource(br)
	} else {
		src, err = NewScanner(br)
	}
	if err != nil {
		if zr != nil {
			zr.Close()
		}
		return nil, err
	}
	if zr != nil {
		return &closerSource{Source: src, c: zr}, nil
	}
	return src, nil
}

// Open opens a trace file — text, filecule-bin/v1, or gzip of either — as a
// streaming Source through NewSource. Closing the source closes the file.
func Open(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewSource(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &closerSource{Source: src, c: f}, nil
}

// closerSource couples a Source with an auxiliary closer (a gzip reader,
// or the file Open opened).
type closerSource struct {
	Source
	c io.Closer
}

func (s *closerSource) Close() error {
	err := s.Source.Close()
	if cerr := s.c.Close(); err == nil {
		err = cerr
	}
	return err
}

package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestBinRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	got, err := ReadBin(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBin: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinRoundTripFuzzSeed(t *testing.T) {
	tr := fuzzSeedTrace()
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	got, err := ReadBin(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBin: %v", err)
	}
	// The seed has a job with duplicate input files (two runs) and a job
	// with a nil input set; both must survive the run-length lists.
	if !reflect.DeepEqual(got.Jobs[0].Files, []FileID{0, 0, 1}) {
		t.Errorf("job 0 files = %v", got.Jobs[0].Files)
	}
	if got.Jobs[1].Files != nil {
		t.Errorf("job 1 files = %v, want nil", got.Jobs[1].Files)
	}
	if !reflect.DeepEqual(got.Jobs[0].Outputs, []FileID{2}) {
		t.Errorf("job 0 outputs = %v", got.Jobs[0].Outputs)
	}
}

// buildManyJobs returns a trace with enough jobs to span several bin
// chunks, with heavy file-list sharing (the filecule access pattern).
func buildManyJobs(tb testing.TB, nJobs int) *Trace {
	tb.Helper()
	b := NewBuilder()
	s := b.Site("s", ".gov", 4)
	u := b.User("u", s)
	files := make([]FileID, 60)
	for i := range files {
		files[i] = b.File(fileNameN(i), int64(1000+i), Tier(i%NumTiers))
	}
	for i := 0; i < nJobs; i++ {
		set := files[(i*7)%40 : (i*7)%40+1+(i%12)]
		b.Job(Job{
			User: u, Site: s, Tier: TierThumbnail, Family: FamilyAnalysis,
			Exec:  &Exec{Node: "n" + fileNameN(i%17), App: "ana", Version: "v" + fileNameN(i%3)},
			Start: t0.Add(time.Duration(i) * time.Minute),
			End:   t0.Add(time.Duration(i)*time.Minute + time.Hour),
			Files: set,
		})
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestBinMultiChunk(t *testing.T) {
	tr := buildManyJobs(t, 3*binChunkJobs+77)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	got, err := ReadBin(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBin: %v", err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("got %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
	}
	for i := range tr.Jobs {
		g, w := got.Jobs[i], tr.Jobs[i]
		if g.ID != w.ID || g.User != w.User || *g.Exec != *w.Exec ||
			!g.Start.Equal(w.Start) || !g.End.Equal(w.End) ||
			!reflect.DeepEqual(g.Files, w.Files) {
			t.Fatalf("job %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// Re-encoding a decoded trace must be byte-identical (stable
	// chunking, interning, and deltas).
	var buf2 bytes.Buffer
	if err := WriteBin(&buf2, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encode of decoded trace is not byte-identical")
	}
}

// binFrames splits a filecule-bin/v1 stream into its raw frames (length
// prefix, payload, CRC), so corruption cases can reorder, repeat and
// replace whole chunks.
func binFrames(t testing.TB, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for pos := len(binMagic); pos < len(data); {
		_, _, next, ok := mapFrame(data, pos)
		if !ok {
			t.Fatalf("no whole frame at byte %d", pos)
		}
		frames = append(frames, data[pos:next])
		pos = next
	}
	return frames
}

func joinFrames(frames ...[]byte) []byte {
	return append([]byte(binMagic), bytes.Join(frames, nil)...)
}

// lateCRCFault encodes a trace of nine job chunks, the first eight over three
// pages long, with a CRC fault in the last. ReadFile's fill meets the fault
// after it has released the pages of the chunks before it (all of them, on
// one worker), and ReadBin must then read those pages again.
func lateCRCFault(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteBin(&buf, buildManyJobs(tb, 8*binChunkJobs+77)); err != nil {
		tb.Fatal(err)
	}
	fr := binFrames(tb, buf.Bytes())
	if len(fr) != 11 {
		tb.Fatalf("trace encodes to %d frames, want 11", len(fr))
	}
	last := bytes.Clone(fr[9])
	last[len(last)/2] ^= 0x20
	return joinFrames(append(slices.Clone(fr[:9]), last, fr[10])...)
}

func frameOf(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChunk(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinRoutesAgree is the differential over every way a filecule-bin/v1
// trace is decoded: the streamed decoder through the Source and through the
// materialiser, gzip-wrapped, opened from a file, and ReadFile's mapped fill
// at one worker and at four. All routes must decode a multi-chunk trace to
// the same thing and reject the same corruption corpus, and ReadFile must
// fail with the path and then ReadBin's words: its fast path has none of its
// own.
func TestBinRoutesAgree(t *testing.T) {
	drain := func(src Source, err error) (*Trace, error) {
		if err != nil {
			return nil, err
		}
		defer src.Close()
		return Materialize(src)
	}
	readFileAt := func(procs int) func(string, []byte) (*Trace, error) {
		return func(path string, _ []byte) (*Trace, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return ReadFile(path)
		}
	}
	routes := []struct {
		name     string
		readFile bool
		decode   func(path string, data []byte) (*Trace, error)
	}{
		{"stream cursor, source", false, func(_ string, data []byte) (*Trace, error) {
			return drain(NewBinSource(bytes.NewReader(data)))
		}},
		{"stream cursor, materialiser", false, func(_ string, data []byte) (*Trace, error) {
			return ReadBin(bytes.NewReader(data))
		}},
		{"gzip-wrapped stream", false, func(_ string, data []byte) (*Trace, error) {
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			zw.Write(data)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			return ReadAuto(&gz)
		}},
		{"Open, source", false, func(path string, _ []byte) (*Trace, error) {
			return drain(Open(path))
		}},
		{"ReadFile, GOMAXPROCS=1", true, readFileAt(1)},
		{"ReadFile, GOMAXPROCS=4", true, readFileAt(4)},
	}

	tr := buildManyJobs(t, 3*binChunkJobs+77)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	valid := buf.Bytes()
	fr := binFrames(t, valid) // catalog, four job chunks, end
	if len(fr) != 6 {
		t.Fatalf("trace encodes to %d frames, want 6", len(fr))
	}
	last := len(fr) - 1
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x20
	var empty bytes.Buffer
	if err := WriteBin(&empty, &Trace{}); err != nil {
		t.Fatal(err)
	}
	wrongTotal := binary.AppendUvarint([]byte{binChunkKindEnd}, uint64(len(tr.Jobs)+1))
	// Two faults: a stream meets the bad CRC in job chunk 1 before the torn
	// tail, a walk over every frame first would meet the tail first.
	badChunk1 := bytes.Clone(fr[2])
	badChunk1[len(badChunk1)/2] ^= 0x20
	crcThenTorn := joinFrames(fr[0], fr[1], badChunk1, fr[3], fr[4], fr[5])
	crcThenTorn = crcThenTorn[:len(crcThenTorn)-1]
	// The mapped fill reads the catalog's counts off its head before any
	// checksum and decodes the catalog beside the job chunks: a fault past the
	// head fails that queue item, one in the file count fails the decode.
	badCatalog := bytes.Clone(fr[0])
	badCatalog[len(badCatalog)/2] ^= 0x20
	badFileCount := bytes.Clone(fr[0])
	at := bytes.Index(badFileCount, []byte{1, 'u', 0, byte(len(tr.Files))}) // user "u" at site 0, then the file count
	if at < 0 {
		t.Fatal("no file count after the user record")
	}
	badFileCount[at+3]++

	cases := []struct {
		name string
		data []byte
		want *Trace // nil: every route must reject
	}{
		{"multi-chunk trace", valid, tr},
		{"empty trace", empty.Bytes(), &Trace{Files: []File{}, Users: []User{}, Sites: []Site{}}},
		{"flipped byte", flipped, nil},
		{"torn tail, mid-chunk", valid[:len(valid)/2], nil},
		{"torn tail, last byte", valid[:len(valid)-1], nil},
		{"CRC in job chunk 1, then torn tail", crcThenTorn, nil},
		{"CRC in the last of nine job chunks", lateCRCFault(t), nil},
		{"CRC fault in the catalog frame", joinFrames(badCatalog, fr[1], fr[2], fr[3], fr[4], fr[5]), nil},
		{"CRC fault in the catalog's file count", joinFrames(badFileCount, fr[1], fr[2], fr[3], fr[4], fr[5]), nil},
		{"missing end chunk", joinFrames(fr[:last]...), nil},
		{"duplicate catalog", joinFrames(fr[0], fr[1], fr[0], fr[2], fr[3], fr[4], fr[5]), nil},
		{"mis-ordered chunk IDs", joinFrames(fr[0], fr[1], fr[3], fr[2], fr[4], fr[5]), nil},
		{"missing job chunk", joinFrames(fr[0], fr[1], fr[2], fr[4], fr[5]), nil},
		{"wrong end total", joinFrames(append(slices.Clone(fr[:last]), frameOf(t, wrongTotal))...), nil},
		{"chunk after end", joinFrames(append(slices.Clone(fr), fr[last])...), nil},
		{"byte after end", append(bytes.Clone(valid), 0), nil},
		{"unknown chunk kind", joinFrames(fr[0], fr[1], frameOf(t, []byte{'Q', 1}), fr[2], fr[3], fr[4], fr[5]), nil},
	}
	for _, c := range cases {
		path := writeFile(t, c.data)
		_, binErr := ReadBin(bytes.NewReader(c.data))
		for _, r := range routes {
			got, err := r.decode(path, c.data)
			switch {
			case c.want == nil && err == nil:
				t.Errorf("%s: %s accepted it", c.name, r.name)
			case c.want != nil && err != nil:
				t.Errorf("%s: %s: %v", c.name, r.name, err)
			case c.want != nil && !reflect.DeepEqual(got, c.want):
				t.Errorf("%s: %s decoded a different trace", c.name, r.name)
			case r.readFile && err != nil && err.Error() != path+": "+binErr.Error():
				t.Errorf("%s: %s says %q, ReadBin %q", c.name, r.name, err, binErr)
			}
		}
	}
}

func TestBinSourceStreamsSameJobs(t *testing.T) {
	tr := buildManyJobs(t, binChunkJobs+50)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	src, err := NewBinSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewBinSource: %v", err)
	}
	defer src.Close()
	if !reflect.DeepEqual(src.Files(), tr.Files) {
		t.Error("file catalog mismatch")
	}
	got, err := Materialize(src)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("streamed trace differs from original")
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestBinSmallerThanText(t *testing.T) {
	tr := buildManyJobs(t, 2000)
	var text, bin bytes.Buffer
	if err := writeText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBin(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Errorf("bin encoding (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
}

func TestBinRejectsCorruption(t *testing.T) {
	tr := buildManyJobs(t, 300)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("bit flip fails CRC", func(t *testing.T) {
		for _, off := range []int{len(binMagic) + 10, len(valid) / 2, len(valid) - 3} {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if _, err := ReadBin(bytes.NewReader(bad)); err == nil {
				t.Errorf("corruption at offset %d accepted", off)
			}
		}
	})
	t.Run("truncation detected", func(t *testing.T) {
		for _, keep := range []int{len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			bad := valid[:keep]
			if _, err := ReadBin(bytes.NewReader(bad)); err == nil {
				t.Errorf("truncation to %d bytes accepted", len(bad))
			}
		}
	})
	t.Run("missing end chunk", func(t *testing.T) {
		// Strip the final chunk: payload = 'E' + uvarint(300) = 3
		// bytes; framing = 1 length byte + payload + 4 CRC bytes.
		bad := valid[:len(valid)-8]
		if _, err := ReadBin(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "missing end chunk") {
			t.Errorf("missing end chunk: err = %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[2] ^= 0xff
		if _, err := ReadBin(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic: err = %v", err)
		}
	})
	t.Run("streaming decoder rejects too", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)/2] ^= 0x20
		src, err := NewBinSource(bytes.NewReader(bad))
		if err != nil {
			return // corrupted catalog: rejected at open, fine
		}
		for {
			_, err := src.Next()
			if err == io.EOF {
				t.Error("streaming decoder drained corrupted stream cleanly")
				return
			}
			if err != nil {
				return // rejected, as it must be
			}
		}
	})
}

func TestBinWriterRejectsBadJobs(t *testing.T) {
	tr := smallTrace(t)
	check := func(name string, j Job) {
		t.Helper()
		var buf bytes.Buffer
		bw, err := NewBinWriter(&buf, tr.Files, tr.Users, tr.Sites)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteJob(&j); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	check("out of order ID", Job{ID: 5, Start: t0, End: t0})
	check("unknown user", Job{ID: 0, User: 99, Start: t0, End: t0})
	check("unknown file", Job{ID: 0, Start: t0, End: t0, Files: []FileID{99}})
	check("ends before start", Job{ID: 0, Start: t0, End: t0.Add(-time.Hour)})
}

// TestBinSourceAllocsBounded is the acceptance-criterion check that peak
// allocation no longer scales with job count when streaming from a binary
// Source: draining thousands of jobs must cost a bounded number of
// allocations (catalog + chunk buffers + interned strings), far below one
// per job.
func TestBinSourceAllocsBounded(t *testing.T) {
	drainAllocs := func(nJobs int) float64 {
		tr := buildManyJobs(t, nJobs)
		var buf bytes.Buffer
		if err := WriteBin(&buf, tr); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(3, func() {
			src, err := NewBinSource(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				j, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n += len(j.Files)
			}
			src.Close()
		})
	}
	small := drainAllocs(binChunkJobs)
	large := drainAllocs(8 * binChunkJobs)
	// The allocations are the catalog, the interned strings, and the
	// chunk-buffer high-water mark — all independent of job count, so an
	// 8x larger trace must not cost meaningfully more (2x slack covers
	// buffer-growth noise), and the absolute count must sit far below
	// one allocation per job.
	if large > 2*small+64 {
		t.Errorf("allocations scale with job count: %d jobs -> %.0f, %d jobs -> %.0f",
			binChunkJobs, small, 8*binChunkJobs, large)
	}
	if perJob := large / float64(8*binChunkJobs); perJob > 0.25 {
		t.Errorf("draining allocates %.2f per job (want amortized ~0)", perJob)
	}
}

// TestBinSourceNextAllocsNothing holds the cursor's steady state to zero
// allocations per job, over a reader and over a file Open opened — what
// BenchmarkBinIterate gates: once the reused buffers have seen a chunk, Next
// allocates nothing, chunk boundaries included.
func TestBinSourceNextAllocsNothing(t *testing.T) {
	tr := buildManyJobs(t, 6*binChunkJobs)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, src Source) {
		defer src.Close()
		next := func() {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*binChunkJobs; i++ { // warm the buffers and the interner
			next()
		}
		if got := testing.AllocsPerRun(3*binChunkJobs, next); got != 0 {
			t.Errorf("Next allocates %.2f times per job, want 0", got)
		}
	}
	t.Run("streamed", func(t *testing.T) {
		src, err := NewBinSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		check(t, src)
	})
	t.Run("Open", func(t *testing.T) {
		src, err := Open(writeFile(t, buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		check(t, src)
	})
}

func TestReadAutoDetectsBinAndGzip(t *testing.T) {
	tr := smallTrace(t)
	var bin bytes.Buffer
	if err := WriteBin(&bin, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("ReadAuto(bin): %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("ReadAuto(bin) mismatch")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(bin.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAuto(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatalf("ReadAuto(gzip bin): %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("ReadAuto(gzip bin) mismatch")
	}
}

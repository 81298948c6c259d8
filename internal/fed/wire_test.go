package fed

import (
	"encoding/binary"
	"runtime"
	"testing"

	"filecule/internal/trace"
)

// TestDecodeDeltaHostileCountsAllocateLittle: a header-only delta whose
// record and live counts claim the maximum is refused for its missing end
// chunk without first allocating for what it claims — the counts are taken
// only as far as the body's bytes can back them.
func TestDecodeDeltaHostileCountsAllocateLittle(t *testing.T) {
	hdr := []byte{KindHeader}
	hdr = appendSite(hdr, "a")
	hdr = trace.AppendUint64(hdr, 1)
	hdr = binary.AppendUvarint(hdr, 0)            // from
	hdr = binary.AppendUvarint(hdr, 1)            // to
	hdr = binary.AppendUvarint(hdr, 0)            // observed
	hdr = binary.AppendUvarint(hdr, maxFedGroups) // records
	hdr = binary.AppendUvarint(hdr, maxFedGroups) // live
	hdr = binary.AppendUvarint(hdr, 0)            // record files
	b := trace.AppendChunk([]byte(Magic), hdr)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeDelta(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a delta with no end chunk was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte delta allocated %d bytes before failing, want < 1 MiB", len(b), got)
	}
}

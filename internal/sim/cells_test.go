package sim

import (
	"testing"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// TestPlaceOutcomes drives the bypass rule through its three outcomes on
// both axes: a unit that fits is loaded whole, a unit larger than the cache
// sends only the requested file to its degenerate slot, and a single file
// larger than the cache is not cached at all. Bypasses counts the last two.
// It also pins the compact slot numbering: the file
// axis numbers requested files only and has no degenerate slots, and the
// filecule axis gives one, after its filecules, only to a requested file
// that is uncovered or in a filecule larger than the smallest cache.
func TestPlaceOutcomes(t *testing.T) {
	const mb = 1 << 20
	tr := &trace.Trace{Files: []trace.File{
		{ID: 0, Size: 2 * mb}, // filecule 0 = {0, 1}, 8 MB
		{ID: 1, Size: 6 * mb},
		{ID: 2, Size: 1 * mb}, // filecule 1 = {2}, 1 MB
		{ID: 3, Size: 3 * mb}, // never requested
		{ID: 4, Size: 1 * mb}, // requested, uncovered
	}}
	p := core.NewPartition([]core.Filecule{
		{Files: []trace.FileID{0, 1}, Requests: 1},
		{Files: []trace.FileID{2}, Requests: 1},
	})
	stream := []trace.FileID{0, 1, 2, 4}
	sizes := catalogSizes(tr)
	requested, n := requestedFiles(len(tr.Files), stream)
	fileAx, fcAx := newFileAxis(sizes, requested, n), newFileculeAxis(tr, p, sizes, requested, 4*mb)
	if fileAx.nSlots != 4 || fcAx.nSlots != 2+3 {
		t.Fatalf("slot spaces: file axis %d, filecule axis %d; want 4 and 2+3", fileAx.nSlots, fcAx.nSlots)
	}

	type want struct {
		slot   int32
		size   int64
		ok     bool
		bypass int64
	}
	cases := []struct {
		name     string
		ax       *axisData
		capacity int64
		file     trace.FileID
		want     want
	}{
		{"file axis, fits", fileAx, 4 * mb, 0, want{0, 2 * mb, true, 0}},
		{"file axis, file larger than the cache", fileAx, 4 * mb, 1, want{1, 6 * mb, false, 1}},
		{"file axis, past a never-requested file", fileAx, 4 * mb, 4, want{3, 1 * mb, true, 0}},
		{"filecule axis, fits", fcAx, 8 * mb, 0, want{0, 8 * mb, true, 0}},
		{"filecule axis, bypass to the degenerate slot", fcAx, 4 * mb, 0, want{2 + 0, 2 * mb, true, 1}},
		{"filecule axis, file larger than the cache", fcAx, 4 * mb, 1, want{2 + 1, 6 * mb, false, 1}},
		{"filecule axis, small filecule beside an oversized one", fcAx, 4 * mb, 2, want{1, 1 * mb, true, 0}},
		{"filecule axis, uncovered file", fcAx, 4 * mb, 4, want{2 + 2, 1 * mb, true, 0}},
	}
	for _, tc := range cases {
		c := newCell(cellSpec{Capacity: tc.capacity}, tc.ax, nil)
		slot, size, ok := c.place(tc.ax.slotOf[tc.file], tc.ax.degOf[tc.file], sizes[tc.file])
		if got := (want{slot, size, ok, c.m.Bypasses}); got != tc.want {
			t.Errorf("%s: place = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// Through a whole cell: the bypassed file hits its degenerate slot.
	c := buildCell(cellSpec{Policy: "lru", Granularity: "filecule", Capacity: 4 * mb, axis: axisFilecule},
		fcAx, nil, nil, 0, nil)
	c.run([]trace.FileID{0, 1, 0})
	if m := c.m; m.Bypasses != 2 || m.Requests != 3 || m.Hits != 1 || m.Misses != 2 {
		t.Errorf("[bypass, oversized, hit]: %+v, want 2 bypasses, 3 requests, 1 hit, 2 misses", m)
	}
}

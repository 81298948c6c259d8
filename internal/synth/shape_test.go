package synth

import (
	"io"
	"testing"
	"time"

	"filecule/internal/trace"
)

func TestParseShapeMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShapeMode
		ok   bool
	}{
		{"", ShapeNone, true},
		{"none", ShapeNone, true},
		{"ramp", ShapeRamp, true},
		{"sweep", ShapeSweep, true},
		{"burst", ShapeBurst, true},
		{"spike", ShapeNone, false},
	} {
		got, err := ParseShapeMode(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseShapeMode(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseShapeMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if err == nil {
			if rt, err2 := ParseShapeMode(got.String()); err2 != nil || rt != got {
				t.Errorf("mode %v does not round-trip through String: %v %v", got, rt, err2)
			}
		}
	}
}

func TestShapeValidate(t *testing.T) {
	good := Shape{Mode: ShapeRamp, StartRPS: 1, TargetRPS: 10, StepRPS: 1, Slot: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if err := (Shape{}).Validate(); err != nil {
		t.Fatalf("zero (none) shape rejected: %v", err)
	}
	bad := []Shape{
		{Mode: ShapeRamp, StartRPS: 0, TargetRPS: 10, StepRPS: 1, Slot: time.Second},
		{Mode: ShapeRamp, StartRPS: 1, TargetRPS: -1, StepRPS: 1, Slot: time.Second},
		{Mode: ShapeRamp, StartRPS: 1, TargetRPS: 10, StepRPS: 0, Slot: time.Second},
		{Mode: ShapeSweep, StartRPS: 1, TargetRPS: 10, StepRPS: -2, Slot: time.Second},
		{Mode: ShapeBurst, StartRPS: 1, TargetRPS: 10, Slot: 0},
	}
	for i, sh := range bad {
		if err := sh.Validate(); err == nil {
			t.Errorf("bad shape %d accepted: %+v", i, sh)
		}
	}
}

func TestShapeRateRamp(t *testing.T) {
	sh := Shape{Mode: ShapeRamp, StartRPS: 2, TargetRPS: 10, StepRPS: 3, Slot: time.Second}
	want := []float64{2, 5, 8, 10, 10, 10}
	for k, w := range want {
		if got := sh.rate(int64(k)); got != w {
			t.Errorf("ramp rate(%d) = %v, want %v", k, got, w)
		}
	}
	// Ramp down.
	down := Shape{Mode: ShapeRamp, StartRPS: 10, TargetRPS: 2, StepRPS: 3, Slot: time.Second}
	wantDown := []float64{10, 7, 4, 2, 2}
	for k, w := range wantDown {
		if got := down.rate(int64(k)); got != w {
			t.Errorf("ramp-down rate(%d) = %v, want %v", k, got, w)
		}
	}
}

func TestShapeRateSweep(t *testing.T) {
	sh := Shape{Mode: ShapeSweep, StartRPS: 1, TargetRPS: 5, StepRPS: 2, Slot: time.Second}
	// span=4, steps=2 → period 4: 1,3,5,3, 1,3,5,3, ...
	want := []float64{1, 3, 5, 3, 1, 3, 5, 3, 1}
	for k, w := range want {
		if got := sh.rate(int64(k)); got != w {
			t.Errorf("sweep rate(%d) = %v, want %v", k, got, w)
		}
	}
	// Sweep never leaves [lo, hi] over a long horizon.
	for k := int64(0); k < 1000; k++ {
		r := sh.rate(k)
		if r < 1 || r > 5 {
			t.Fatalf("sweep rate(%d) = %v outside [1,5]", k, r)
		}
	}
}

func TestShapeRateBurst(t *testing.T) {
	sh := Shape{Mode: ShapeBurst, StartRPS: 1, TargetRPS: 100, Slot: time.Second}
	for k := int64(0); k < 10; k++ {
		want := 1.0
		if k%2 == 1 {
			want = 100
		}
		if got := sh.rate(k); got != want {
			t.Errorf("burst rate(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestPacerOffsets(t *testing.T) {
	// Constant 2 RPS: offsets are 0, 0.5s, 1.0s, 1.5s, ...
	p := NewPacer(Shape{Mode: ShapeRamp, StartRPS: 2, TargetRPS: 2, StepRPS: 1, Slot: time.Second})
	for i := 0; i < 6; i++ {
		got := p.Next()
		want := time.Duration(i) * 500 * time.Millisecond
		if got != want {
			t.Errorf("pacer offset %d = %v, want %v", i, got, want)
		}
	}
	// ShapeNone paces everything at offset 0.
	n := NewPacer(Shape{})
	for i := 0; i < 3; i++ {
		if got := n.Next(); got != 0 {
			t.Errorf("none pacer offset %d = %v, want 0", i, got)
		}
	}
	// Offsets are strictly increasing for any real schedule.
	b := NewPacer(Shape{Mode: ShapeBurst, StartRPS: 1, TargetRPS: 50, Slot: time.Second})
	prev := time.Duration(-1)
	for i := 0; i < 500; i++ {
		off := b.Next()
		if off <= prev {
			t.Fatalf("burst pacer offset %d = %v not increasing (prev %v)", i, off, prev)
		}
		prev = off
	}
}

// TestReshapePreservesEverythingButTime proves shaping only rewrites
// arrival times: same jobs, same order, same file lists, same durations.
func TestReshapePreservesEverythingButTime(t *testing.T) {
	cfg := DZero(7, 0.01)
	plain, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	sh := Shape{Mode: ShapeSweep, StartRPS: 5, TargetRPS: 50, StepRPS: 5, Slot: 10 * time.Second}
	shaped, err := Reshape(src, sh, epoch)
	if err != nil {
		t.Fatal(err)
	}
	defer shaped.Close()

	if len(shaped.Files()) != len(plain.Files()) {
		t.Fatalf("file catalog changed: %d vs %d", len(shaped.Files()), len(plain.Files()))
	}
	prev := time.Time{}
	n := 0
	for {
		pj, perr := plain.Next()
		sj, serr := shaped.Next()
		if perr == io.EOF || serr == io.EOF {
			if perr != serr {
				t.Fatalf("streams ended at different points: %v vs %v", perr, serr)
			}
			break
		}
		if perr != nil || serr != nil {
			t.Fatal(perr, serr)
		}
		if sj.ID != pj.ID || sj.User != pj.User || sj.Site != pj.Site {
			t.Fatalf("job %d identity changed: %+v vs %+v", n, sj, pj)
		}
		if len(sj.Files) != len(pj.Files) {
			t.Fatalf("job %d file count changed", n)
		}
		for i := range sj.Files {
			if sj.Files[i] != pj.Files[i] {
				t.Fatalf("job %d file %d changed", n, i)
			}
		}
		if sj.End.Sub(sj.Start) != pj.End.Sub(pj.Start) {
			t.Fatalf("job %d duration changed: %v vs %v", n, sj.End.Sub(sj.Start), pj.End.Sub(pj.Start))
		}
		if sj.Start.Before(prev) {
			t.Fatalf("shaped job %d start %v before previous %v", n, sj.Start, prev)
		}
		if sj.Start.Before(epoch) {
			t.Fatalf("shaped job %d starts before epoch", n)
		}
		prev = sj.Start
		n++
	}
	if n == 0 {
		t.Fatal("no jobs compared")
	}
}

// TestReshapeNoneIsIdentity: ShapeNone returns the source unchanged.
func TestReshapeNoneIsIdentity(t *testing.T) {
	src, err := NewSource(DZero(1, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	out, err := Reshape(src, Shape{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if out != src {
		t.Fatal("ShapeNone reshape did not return the identical source")
	}
}

// TestReshapeMaterialized: a shaped stream materialized start-sorted
// validates, is deterministic across runs and follows the schedule.
func TestReshapeMaterialized(t *testing.T) {
	sh := Shape{Mode: ShapeBurst, StartRPS: 2, TargetRPS: 40, Slot: 30 * time.Second}
	epoch := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func() *trace.Trace {
		src, err := NewSource(DZero(3, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		shaped, err := Reshape(src, sh, epoch)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := materializeSorted(shaped)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	if err := a.Validate(); err != nil {
		t.Fatalf("shaped trace invalid: %v", err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Jobs) == 0 {
		t.Fatalf("nondeterministic job count: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if !a.Jobs[i].Start.Equal(b.Jobs[i].Start) {
			t.Fatalf("job %d start differs across runs", i)
		}
	}
	// Throughput actually follows the schedule: the burst slots hold 20×
	// the jobs of baseline slots, so slot occupancy must alternate.
	counts := map[int64]int{}
	for i := range a.Jobs {
		slot := int64(a.Jobs[i].Start.Sub(epoch) / (30 * time.Second))
		counts[slot]++
	}
	if counts[1] <= counts[0] || counts[3] <= counts[2] {
		t.Fatalf("burst slots not denser than baseline: %v", counts)
	}
}

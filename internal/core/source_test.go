package core

import (
	"bytes"
	"testing"

	"filecule/internal/trace"
)

// streamedPartition drains src through a fresh engine and snapshots it.
func streamedPartition(t *testing.T, src trace.Source) *Partition {
	t.Helper()
	e := NewEngine(0)
	n, err := e.ObserveSource(src)
	if err != nil {
		t.Fatalf("ObserveSource: %v", err)
	}
	if n == 0 {
		t.Fatal("ObserveSource drained zero jobs")
	}
	return e.Snapshot()
}

// TestObserveSourceAcrossCodecs is the codec-differential partition
// guarantee: for every test trace, the in-memory adapter, the text codec's
// Scanner and the binary codec's BinSource must all stream into partitions
// bit-identical to batch identification of the materialized trace.
func TestObserveSourceAcrossCodecs(t *testing.T) {
	for ti, tr := range diffTraces(t) {
		ref := Identify(tr)

		if p := streamedPartition(t, trace.NewTraceSource(tr)); !ref.Equal(p) {
			t.Errorf("trace %d: in-memory Source differs from Identify", ti)
		}

		var text bytes.Buffer
		tw, err := trace.NewTextWriter(&text, tr.Files, tr.Users, tr.Sites)
		if err == nil {
			_, err = trace.CopySource(tw, trace.NewTraceSource(tr))
		}
		if err != nil {
			t.Fatal(err)
		}
		sc, err := trace.NewScanner(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if p := streamedPartition(t, sc); !ref.Equal(p) {
			t.Errorf("trace %d: text Scanner source differs from Identify", ti)
		}

		var bin bytes.Buffer
		if err := trace.WriteBin(&bin, tr); err != nil {
			t.Fatal(err)
		}
		bs, err := trace.NewBinSource(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if p := streamedPartition(t, bs); !ref.Equal(p) {
			t.Errorf("trace %d: binary source differs from Identify", ti)
		}
	}
}

// TestSplitTraceSourcePartition covers the SplitByTime / WithJobs
// interaction with the Source adapter: streaming a split trace must yield
// exactly the partition batch identification computes on the materialized
// split.
func TestSplitTraceSourcePartition(t *testing.T) {
	for ti, tr := range diffTraces(t) {
		if len(tr.Jobs) < 4 {
			continue
		}
		for _, frac := range []float64{0.25, 0.5, 0.8} {
			history, future := tr.SplitByTime(frac)
			for name, part := range map[string]*trace.Trace{"history": history, "future": future} {
				want := Identify(part)
				got := streamedPartition(t, trace.NewTraceSource(part))
				if !want.Equal(got) {
					t.Errorf("trace %d split %.2f %s: streamed partition differs from Identify", ti, frac, name)
				}
			}
		}

		// WithJobs with an arbitrary subset and order: the adapter must
		// agree with IdentifyJobs-equivalent batch identification of
		// the re-materialized subset.
		var ids []trace.JobID
		for i := len(tr.Jobs) - 1; i >= 0; i -= 3 {
			ids = append(ids, tr.Jobs[i].ID)
		}
		sub := tr.WithJobs(ids)
		want := Identify(sub)
		if got := streamedPartition(t, trace.NewTraceSource(sub)); !want.Equal(got) {
			t.Errorf("trace %d: WithJobs subset streamed partition differs from Identify", ti)
		}

		// Round-trip the split through the binary codec and stream it:
		// codec must not disturb the partition.
		history, _ := tr.SplitByTime(0.5)
		if err := history.Validate(); err != nil {
			t.Fatalf("trace %d: split history invalid: %v", ti, err)
		}
		var bin bytes.Buffer
		if err := trace.WriteBin(&bin, history); err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewBinSource(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want = Identify(history)
		if got := streamedPartition(t, src); !want.Equal(got) {
			t.Errorf("trace %d: bin-round-tripped history partition differs", ti)
		}
	}
}

func TestMonitorObserveSource(t *testing.T) {
	tr := diffTraces(t)[0]
	m := NewEngine(0)
	n, err := m.ObserveSource(trace.NewTraceSource(tr))
	if err != nil || int(n) != len(tr.Jobs) {
		t.Fatalf("ObserveSource = (%d, %v), want (%d, nil)", n, err, len(tr.Jobs))
	}
	if got, want := m.Observed(), int64(len(tr.Jobs)); got != want {
		t.Errorf("Observed = %d, want %d", got, want)
	}
	if p := m.Snapshot(); !Identify(tr).Equal(p) {
		t.Error("Engine.ObserveSource partition differs from Identify")
	}
}

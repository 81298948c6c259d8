package core

import (
	"testing"

	"filecule/internal/trace"
)

// TestStateRoundTrip is the export/import equivalence property the durable
// layer leans on: exporting an engine mid-trace, importing into a fresh
// engine, and continuing must yield the
// same partition as an uninterrupted run — after every sampled cut point.
func TestStateRoundTrip(t *testing.T) {
	for _, seed := range []int64{5, 42, 99} {
		tr := adversarialTrace(seed)
		for cut := 0; cut <= len(tr.Jobs); cut += len(tr.Jobs)/4 + 1 {
			e := NewEngine(0)
			for i := 0; i < cut; i++ {
				e.Observe(tr.Jobs[i].Files)
			}
			st := e.ExportState()
			if st.Observed != int64(cut) {
				t.Fatalf("seed %d cut %d: export observed %d", seed, cut, st.Observed)
			}
			e2 := NewEngine(0)
			if err := e2.ImportState(st); err != nil {
				t.Fatalf("seed %d cut %d: import: %v", seed, cut, err)
			}
			if e2.Observed() != int64(cut) || e2.NumFilecules() != e.NumFilecules() {
				t.Fatalf("seed %d cut %d: imported counters observed=%d filecules=%d, want %d/%d",
					seed, cut, e2.Observed(), e2.NumFilecules(), cut, e.NumFilecules())
			}
			for i := cut; i < len(tr.Jobs); i++ {
				e2.Observe(tr.Jobs[i].Files)
			}
			want := Identify(tr)
			if got := e2.Snapshot(); !want.Equal(got) {
				t.Fatalf("seed %d cut %d: recovered engine differs from Identify", seed, cut)
			}
		}
	}
}

// Re-exporting an unchanged engine must reuse group materializations: same
// Files backing arrays, same stamps — the property the checkpoint writer's
// (sig, stamp) encode cache is keyed on.
func TestStateExportReuse(t *testing.T) {
	tr := adversarialTrace(7)
	e := NewEngine(0)
	e.ObserveTrace(tr)
	a := e.ExportState()
	b := e.ExportState()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if &a.Groups[i].Files[0] != &b.Groups[i].Files[0] {
			t.Fatalf("group %d rebuilt despite no observes", i)
		}
		if a.Groups[i].Stamp != b.Groups[i].Stamp {
			t.Fatalf("group %d stamp changed despite no observes", i)
		}
	}

	// Observe a job touching one filecule: only affected groups may change
	// stamp.
	victim := a.Groups[0]
	e.Observe(victim.Files[:1])
	c := e.ExportState()
	changed := 0
	stamps := make(map[[2]uint64]uint64, len(a.Groups))
	for _, g := range a.Groups {
		stamps[[2]uint64{g.SigLo, g.SigHi}] = g.Stamp
	}
	for _, g := range c.Groups {
		if old, ok := stamps[[2]uint64{g.SigLo, g.SigHi}]; !ok || old != g.Stamp {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("observe changed no group stamps")
	}
	if changed == len(c.Groups) && len(c.Groups) > 2 {
		t.Fatalf("observe of one filecule re-stamped all %d groups", len(c.Groups))
	}
}

func TestImportStateRejectsBadState(t *testing.T) {
	base := &EngineState{
		Observed: 1,
		NextGen:  1,
		Groups: []StateGroup{
			{SigLo: 1, SigHi: 2, Requests: 1, Files: []trace.FileID{0, 1}},
		},
	}
	cases := []struct {
		name string
		mut  func(st *EngineState)
	}{
		{"negative observed", func(st *EngineState) { st.Observed = -1 }},
		{"empty group", func(st *EngineState) { st.Groups[0].Files = nil }},
		{"zero requests", func(st *EngineState) { st.Groups[0].Requests = 0 }},
		{"unsorted files", func(st *EngineState) { st.Groups[0].Files = []trace.FileID{1, 0} }},
		{"duplicate file in group", func(st *EngineState) { st.Groups[0].Files = []trace.FileID{1, 1} }},
		{"negative file", func(st *EngineState) { st.Groups[0].Files = []trace.FileID{-1, 0} }},
		{"duplicate sig", func(st *EngineState) {
			st.Groups = append(st.Groups, StateGroup{SigLo: 1, SigHi: 2, Requests: 1, Files: []trace.FileID{5}})
		}},
		{"file in two groups", func(st *EngineState) {
			st.Groups = append(st.Groups, StateGroup{SigLo: 9, SigHi: 9, Requests: 1, Files: []trace.FileID{1, 7}})
		}},
	}
	for _, tc := range cases {
		st := &EngineState{
			Observed: base.Observed,
			NextGen:  base.NextGen,
			Groups:   append([]StateGroup(nil), base.Groups...),
		}
		st.Groups[0].Files = append([]trace.FileID(nil), base.Groups[0].Files...)
		tc.mut(st)
		if err := NewEngine(0).ImportState(st); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The unmutated base must import.
	if err := NewEngine(0).ImportState(base); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	// Importing onto a used engine must fail.
	e := NewEngine(0)
	e.Observe([]trace.FileID{3})
	if err := e.ImportState(base); err == nil {
		t.Error("import on non-empty engine accepted")
	}
}

// TestStateGroupCodec: the record the checkpoint and the federation delta
// share round-trips, keeps the caller's file budget, and refuses a request
// count below one, an over-budget member list and trailing bytes.
func TestStateGroupCodec(t *testing.T) {
	groups := []StateGroup{
		{SigLo: 1, SigHi: 2, Requests: 3, Files: []trace.FileID{0, 1, 2, 9}},
		{SigLo: 1 << 63, SigHi: 7, Requests: 1, Files: []trace.FileID{100000}},
	}
	encode := func(count int, gs ...StateGroup) []byte {
		payload := []byte{'G', byte(count)}
		for i := range gs {
			payload = AppendStateGroup(payload, &gs[i])
		}
		return payload
	}
	decode := func(payload []byte, budget int) ([]StateGroup, int, error) {
		p := trace.NewPayload(payload)
		out := ReadStateGroups(p, nil, 1<<31, &budget)
		return out, budget, p.Err()
	}

	got, left, err := decode(encode(2, groups...), 7)
	if err != nil || left != 2 || len(got) != 2 {
		t.Fatalf("decoded %d groups, %d files left, err %v; want 2, 2, nil", len(got), left, err)
	}
	for i := range groups {
		if got[i].SigLo != groups[i].SigLo || got[i].SigHi != groups[i].SigHi || got[i].Requests != groups[i].Requests ||
			len(got[i].Files) != len(groups[i].Files) {
			t.Fatalf("group %d decoded to %+v, want %+v", i, got[i], groups[i])
		}
	}

	zero := groups[0]
	zero.Requests = 0
	for name, tc := range map[string]struct {
		payload []byte
		budget  int
	}{
		"request count 0":   {encode(1, zero), 10},
		"over file budget":  {encode(2, groups...), 4},
		"trailing bytes":    {append(encode(1, groups[0]), 0), 10},
		"count past record": {encode(3, groups...), 10},
	} {
		if _, _, err := decode(tc.payload, tc.budget); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

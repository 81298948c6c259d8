// External test package: these tests exercise the registry the way cmds do,
// by spec.
package workload_test

import (
	"bytes"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"filecule/internal/synth"
	"filecule/internal/trace"
	workload "filecule/internal/workload"
)

func TestParseSpec(t *testing.T) {
	a, opts, err := workload.ParseSpec("dzero,seed=7,scale=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "dzero" || opts["seed"] != "7" || opts["scale"] != "0.02" {
		t.Fatalf("parsed %q %v", a.Name, opts)
	}
	// Bare name, stray commas and spaces are fine.
	if _, opts, err = workload.ParseSpec("dzero"); err != nil || len(opts) != 0 {
		t.Fatalf("bare name: %v %v", opts, err)
	}
	if _, _, err = workload.ParseSpec(" dzero , seed=1 ,"); err != nil {
		t.Fatalf("spaced spec: %v", err)
	}
	// Values may contain '=' (only the first splits).
	_, opts, err = workload.ParseSpec("file,path=a=b")
	if err != nil || opts["path"] != "a=b" {
		t.Fatalf("value with '=': %v %v", opts, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ spec, wantSub string }{
		{"", "empty spec"},
		{"   ", "empty spec"},
		{"klingon,seed=1", "unknown adapter"},
		{"dzero,warp=9", "unknown option"},
		{"dzero,seed", "not key=value"},
		{"dzero,seed=1,seed=2", "given twice"},
		// No escape character: the tail of a path with a comma in it is
		// named, with the reason.
		{"file,path=runs/a,b.bin", `"b.bin" is not key=value (spec values cannot contain commas)`},
		{"file,path=a,b=c.bin", `unknown option "b" (have path, format, scale; spec values cannot contain commas)`},
		// help and list name no adapter: the error is the listing.
		{"help", "workload spec: name[,key=value]..."},
		{"list", "kv-csv"},
	} {
		_, _, err := workload.ParseSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("workload.ParseSpec(%q) err = %v, want substring %q", tc.spec, err, tc.wantSub)
		}
	}
	// Bad option values surface from Open, typed.
	for _, spec := range []string{
		"dzero,seed=banana",
		"dzero,scale=wide",
		"dzero,shape=spike",
		"dzero,shape=ramp,slot=huge",
		"dzero,shape=ramp,rps-start=-3",
		"xrootd,one-touch=2",
		"kv-csv,window=0,path=/dev/null",
		"kv-csv", // missing path
		"file",   // missing path
	} {
		if _, err := workload.Open(spec); err == nil {
			t.Errorf("workload.Open(%q) accepted", spec)
		}
	}
}

func TestSpecHelpMentionsEveryAdapter(t *testing.T) {
	help := workload.SpecHelp()
	for _, name := range []string{"dzero", "file", "kv-csv", "xrootd"} {
		if !strings.Contains(help, name) {
			t.Errorf("SpecHelp misses %q:\n%s", name, help)
		}
	}
	if !strings.Contains(help, "key=value") {
		t.Error("SpecHelp misses the grammar line")
	}
}

// TestScale: the scale a spec declares, 1 when its adapter has none, and the
// spec's own error when it does not parse.
func TestScale(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    float64
		wantErr string
	}{
		{"dzero,scale=0.02", 0.02, ""},
		{"file,path=p,scale=0.05", 0.05, ""},
		{"file,path=p", 1, ""},
		{"kv-csv,path=p", 1, ""},
		{"dzero,scale", 0, "not key=value"},
		{"dzero,scale=wide", 0, "not a number"},
		{"file,path=p,scale=0", 0, "not positive"},
		{"dzero,scale=NaN", 0, "not positive and finite"},
		{"dzero,scale=Inf", 0, "not positive and finite"},
	} {
		got, err := workload.Scale(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Scale(%q) err = %v, want substring %q", tc.spec, err, tc.wantErr)
			}
		} else if err != nil || got != tc.want {
			t.Errorf("Scale(%q) = %v, %v, want %v", tc.spec, got, err, tc.want)
		}
	}
}

// TestDZeroLoadBitIdentity: the registry's dzero Load must produce the
// byte-identical trace the generator does — what the sweep baseline was
// recorded on.
// TestSeedSpecs: the seed key is rewritten where it stands (appended, from
// the adapter's default, when the spec has none), everything else is kept,
// and an adapter with no seed cannot be varied.
func TestSeedSpecs(t *testing.T) {
	for spec, want := range map[string][]string{
		"dzero,seed=7,scale=0.02":    {"dzero,seed=7,scale=0.02", "dzero,seed=8,scale=0.02", "dzero,seed=9,scale=0.02"},
		"dzero,scale=0.02, seed= 41": {"dzero,scale=0.02,seed=41", "dzero,scale=0.02,seed=42", "dzero,scale=0.02,seed=43"},
		"xrootd,scale=0.1":           {"xrootd,scale=0.1,seed=1", "xrootd,scale=0.1,seed=2", "xrootd,scale=0.1,seed=3"},
	} {
		got, err := workload.SeedSpecs(spec, 3)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("SeedSpecs(%q, 3) = %q, %v; want %q", spec, got, err, want)
		}
	}
	for _, spec := range []string{"file,path=t.bin", "kv-csv,path=k.csv", "dzero,seed=x", "nosuch"} {
		if got, err := workload.SeedSpecs(spec, 2); err == nil {
			t.Errorf("SeedSpecs(%q, 2) = %q, want an error", spec, got)
		}
	}
}

func TestDZeroLoadBitIdentity(t *testing.T) {
	got, err := workload.Load("dzero,seed=1,scale=0.02")
	if err != nil {
		t.Fatal(err)
	}
	want, err := synth.Generate(synth.DZero(1, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBin(t, got), encodeBin(t, want)) {
		t.Fatal("registry dzero Load is not byte-identical to synth.Generate")
	}
}

// encodeBin is a trace's canonical bin bytes.
func encodeBin(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeStream drains a source into canonical bin bytes.
func encodeStream(t *testing.T, src trace.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewBinWriter(&buf, src.Files(), src.Users(), src.Sites())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.CopySource(enc, src); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrossAdapterDeterminism: the same spec opened twice yields a
// byte-identical job stream, for every adapter and for shaped variants.
func TestCrossAdapterDeterminism(t *testing.T) {
	dir := t.TempDir()
	csv := dir + "/kv.csv"
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.GenKVCSV(f, 3, 200, 4000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A recorded file for the file adapter.
	binPath := dir + "/trace.bin"
	tr, err := workload.Load("dzero,seed=2,scale=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, encodeBin(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	// The file adapter's scale key says what the trace is, not how to read
	// it: with or without it the same bytes replay.
	for _, spec := range []string{"file,path=" + binPath, "file,path=" + binPath + ",scale=0.05"} {
		src, err := workload.Open(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !bytes.Equal(encodeStream(t, src), encodeBin(t, tr)) {
			t.Errorf("%s does not replay the recorded bytes", spec)
		}
	}

	specs := []string{
		"dzero,seed=1,scale=0.01",
		"dzero,seed=1,scale=0.01,shape=burst,rps-start=5,rps-target=50,slot=30s",
		"xrootd,seed=1,scale=0.01",
		"xrootd,seed=1,scale=0.01,shape=ramp,rps-start=5,rps-target=50,rps-step=5,slot=30s",
		"kv-csv,path=" + csv + ",window=16",
		"file,path=" + binPath,
	}
	for _, spec := range specs {
		open := func() []byte {
			src, err := workload.Open(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			return encodeStream(t, src)
		}
		a, b := open(), open()
		if len(a) == 0 {
			t.Errorf("%s: empty stream", spec)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: stream not deterministic across opens", spec)
		}
		// OpenOrdered must also be deterministic and hold its ordering
		// contract.
		osrc, err := workload.OpenOrdered(spec)
		if err != nil {
			t.Fatalf("%s ordered: %v", spec, err)
		}
		var prev int64
		for first := true; ; first = false {
			j, err := osrc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s ordered: %v", spec, err)
			}
			if s := j.Start.UnixNano(); !first && s < prev {
				t.Fatalf("%s: ordered stream went backwards", spec)
			} else {
				prev = s
			}
		}
		osrc.Close()
	}
}

// TestShapedDZeroSequenceInvariant: shaping re-times arrivals but must not
// reorder the workload — the shaped ordered stream carries the identical
// job ID and file-list sequence as the unshaped one. The cross-workload
// Figure-10 analysis in EXPERIMENTS.md leans on this invariant.
func TestShapedDZeroSequenceInvariant(t *testing.T) {
	drain := func(spec string) (ids []trace.JobID, files [][]trace.FileID) {
		src, err := workload.OpenOrdered(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		for {
			j, err := src.Next()
			if err == io.EOF {
				return ids, files
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
			files = append(files, append([]trace.FileID(nil), j.Files...))
		}
	}
	aIDs, aFiles := drain("dzero,seed=1,scale=0.01")
	bIDs, bFiles := drain("dzero,seed=1,scale=0.01,shape=burst,rps-start=10,rps-target=200,slot=1m")
	if len(aIDs) == 0 || len(aIDs) != len(bIDs) {
		t.Fatalf("job counts differ: %d vs %d", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("job %d: ID %d (unshaped) vs %d (shaped)", i, aIDs[i], bIDs[i])
		}
		if len(aFiles[i]) != len(bFiles[i]) {
			t.Fatalf("job %d: %d files vs %d", i, len(aFiles[i]), len(bFiles[i]))
		}
		for k := range aFiles[i] {
			if aFiles[i][k] != bFiles[i][k] {
				t.Fatalf("job %d file %d: %d vs %d", i, k, aFiles[i][k], bFiles[i][k])
			}
		}
	}
}

// TestFileLoadKeepsStoredOrder: the file adapter's Load returns a recorded
// trace's jobs in the order they are stored, not sorted by start.
func TestFileLoadKeepsStoredOrder(t *testing.T) {
	gen, err := workload.Load("dzero,seed=3,scale=0.005")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]trace.JobID, len(gen.Jobs))
	for i := range ids {
		ids[i] = trace.JobID(len(ids) - 1 - i)
	}
	stored := gen.WithJobs(ids) // latest start first
	if !stored.Jobs[0].Start.After(stored.Jobs[len(ids)-1].Start) {
		t.Fatal("the reversed trace is not out of start order")
	}
	path := t.TempDir() + "/unsorted.bin"
	want := encodeBin(t, stored)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := workload.Load("file,path=" + path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBin(t, got), want) {
		t.Error("file Load did not return the jobs in stored order")
	}
}

// TestLoadMatchesOpenMaterialized: where an adapter has no dedicated Load
// (xrootd) or its Load declines (shaped dzero), Load must equal
// materialize(Open)+sort.
func TestLoadMatchesOpenMaterialized(t *testing.T) {
	for _, spec := range []string{
		"xrootd,seed=4,scale=0.01",
		"dzero,seed=4,scale=0.01,shape=burst,rps-start=5,rps-target=50,slot=30s",
	} {
		lt, err := workload.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := trace.Materialize(src)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		mt.SortJobsByStart()
		if !bytes.Equal(encodeBin(t, lt), encodeBin(t, mt)) {
			t.Errorf("%s: Load differs from materialized Open", spec)
		}
	}
}

// TestXRootDRegistryDefaults: the defaults -workload help prints for the
// xrootd knobs are the ones the adapter starts from.
func TestXRootDRegistryDefaults(t *testing.T) {
	a, err := workload.Lookup("xrootd")
	if err != nil {
		t.Fatal(err)
	}
	d := synth.XRootDDefaults(1, 1)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	want := map[string]string{
		"seed":       "1",
		"scale":      "1",
		"days":       strconv.Itoa(d.Days),
		"one-touch":  f(d.OneTouchFrac),
		"decay-days": f(d.DecayDays),
		"group-prob": f(d.GroupProb),
		"group-size": f(d.GroupSize),
		"mean-files": f(d.MeanFilesPerJob),
	}
	seen := 0
	for _, o := range a.Options {
		w, ok := want[o.Key]
		if !ok {
			continue
		}
		seen++
		if o.Default != w {
			t.Errorf("xrootd %s: registry default %q, XRootDDefaults %q", o.Key, o.Default, w)
		}
	}
	if seen != len(want) {
		t.Errorf("registry lists %d of the %d xrootd knobs", seen, len(want))
	}
}

// xrootdDiffersAtZero requires knob=0 to run a trace other than the
// default's, and knob=<its default> the default's own.
func xrootdDiffersAtZero(t *testing.T, knob, def string) {
	t.Helper()
	const base = "xrootd,seed=2,scale=0.01"
	load := func(spec string) *trace.Trace {
		t.Helper()
		tr, err := workload.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	dflt := load(base)
	if !sameJobs(load(base+","+knob+"="+def), dflt) {
		t.Errorf("%s=%s differs from the default trace", knob, def)
	}
	if sameJobs(load(base+","+knob+"=0"), dflt) {
		t.Errorf("%s=0 ran the default trace", knob)
	}
}

func sameJobs(a, b *trace.Trace) bool {
	if len(a.Jobs) != len(b.Jobs) {
		return false
	}
	for i := range a.Jobs {
		if !slices.Equal(a.Jobs[i].Files, b.Jobs[i].Files) {
			return false
		}
	}
	return true
}

func TestXRootDZeroOneTouch(t *testing.T) { xrootdDiffersAtZero(t, "one-touch", "0.35") }

func TestXRootDZeroGroupProb(t *testing.T) { xrootdDiffersAtZero(t, "group-prob", "0.3") }

// TestZeroIsNotADefault: a knob whose valid range excludes zero refuses an
// explicit zero, naming the key, instead of running its default.
func TestZeroIsNotADefault(t *testing.T) {
	for _, c := range []struct{ spec, key string }{
		{"xrootd,decay-days=0", "decay-days"},
		{"xrootd,group-size=0", "group-size"},
		{"xrootd,days=0", "days"},
		{"dzero,user-scale=0", "user-scale"},
	} {
		if _, err := workload.Open(c.spec); err == nil || !strings.Contains(err.Error(), c.key+"=") {
			t.Errorf("workload.Open(%q) err = %v, want one naming %s", c.spec, err, c.key)
		}
	}
}

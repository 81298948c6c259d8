// Exit-code contract tests for the command-line tools: usage errors exit 2
// (the flag package convention), operational failures exit 1, success exits
// 0. A tool that prints an error but exits 0 silently breaks scripts and CI
// pipelines, so the contract is pinned here for every command.
package filecule_test

import (
	"encoding/binary"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"filecule/internal/durable"
	"filecule/internal/trace"
)

// buildCmds compiles every command once into a shared temp dir and returns
// the binary paths by command name.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

// tiny is the smallest workload that still exercises every tool.
var tiny = []string{"-workload", "dzero,seed=1,scale=0.001"}

func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	return -1, ""
}

func TestCommandExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command; skipped in -short mode")
	}
	bins := buildCmds(t, "filecule-cachesim", "filecule-gen", "filecule-repro", "filecule-serve",
		"filecule-state", "filecule-benchgate")

	noSuchTrace := []string{"-workload", "file,path=" + filepath.Join(t.TempDir(), "missing.trace")}
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "out.trace")
	benchTxt := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(benchTxt, []byte("BenchmarkX-2 \t 100\t 12.5 ns/op\nPASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A federated selftest: valid federation flags, so each case below
	// breaks exactly one.
	fedSelftest := func(args ...string) []string {
		return append(append([]string{"-selftest", "-site", "a", "-wire-addr", "127.0.0.1:0"}, tiny...), args...)
	}

	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		// Usage errors: the flag package's conventional exit 2.
		{"bad flag", "filecule-cachesim", []string{"-no-such-flag"}, 2},
		{"bad flag gen", "filecule-gen", []string{"-no-such-flag"}, 2},
		// A positional argument ends flag parsing, so every flag after it
		// would be dropped without a word: one case per command.
		{"stray arg serve", "filecule-serve", append(append([]string{"-selftest"}, tiny...), "stray", "-state-dir", t.TempDir()), 2},
		{"stray arg cachesim", "filecule-cachesim", append(append([]string{}, tiny...), "stray", "-o", filepath.Join(t.TempDir(), "o")), 2},
		{"stray arg gen", "filecule-gen", append(append([]string{"-o", filepath.Join(t.TempDir(), "t.trace")}, tiny...), "stray", "-format", "bin"), 2},
		{"stray arg repro", "filecule-repro", []string{"-list", "stray", "-exp", "fig99"}, 2},
		{"stray arg state", "filecule-state", []string{"dump", "-dir", t.TempDir(), "extra"}, 2},
		{"stray arg benchgate", "filecule-benchgate", []string{"-bench", benchTxt, "-o", filepath.Join(t.TempDir(), "r.json"), "stray"}, 2},
		// -seeds counts seeds from the spec's own, so it needs at least one
		// and an adapter with a seed option.
		{"repro zero seeds", "filecule-repro", append([]string{"-seeds", "0", "-exp", "table1"}, tiny...), 2},
		{"repro negative seeds", "filecule-repro", append([]string{"-seeds", "-1", "-exp", "table1"}, tiny...), 2},
		{"repro seeds on a file spec", "filecule-repro", []string{"-seeds", "2", "-exp", "table1", "-workload", "file,path=t.bin"}, 2},
		{"repro seeds on a kv-csv spec", "filecule-repro", []string{"-seeds", "2", "-exp", "table1", "-workload", "kv-csv,path=k.csv"}, 2},

		// Operational failures: exit 1. The analyze and swarm cases are the
		// sec3 and sec5 groups of filecule-repro, the cmds they used to be.
		{"missing trace", "filecule-cachesim", noSuchTrace, 1},
		{"unknown policy", "filecule-cachesim", append([]string{"-policies", "belady"}, tiny...), 1},
		{"bad sweep policy", "filecule-cachesim", append([]string{"-sweep", "-policies", "mru"}, tiny...), 1},
		{"bad sweep gran", "filecule-cachesim", append([]string{"-sweep", "-grans", "block"}, tiny...), 1},
		{"bad sweep size", "filecule-cachesim", append([]string{"-sizes", "zero"}, tiny...), 1},
		{"zero sweep size", "filecule-cachesim", append([]string{"-sweep", "-sizes", "0"}, tiny...), 1},
		{"repeated sweep size", "filecule-cachesim", append([]string{"-sweep", "-sizes", "1,1"}, tiny...), 1},
		{"sweep unwritable output", "filecule-cachesim", append([]string{"-sweep", "-o", unwritable}, tiny...), 1},
		{"gen unwritable output", "filecule-gen", append([]string{"-o", unwritable}, tiny...), 1},
		{"analyze missing trace", "filecule-repro", append([]string{"-exp", "sec3"}, noSuchTrace...), 1},
		{"analyze unknown experiment", "filecule-repro", append([]string{"-exp", "sec3,fig99"}, tiny...), 1},
		{"repro unknown experiment", "filecule-repro", append([]string{"-exp", "fig99"}, tiny...), 1},
		{"swarm missing trace", "filecule-repro", append([]string{"-exp", "sec5"}, noSuchTrace...), 1},
		{"serve missing trace", "filecule-serve", noSuchTrace, 1},
		{"serve unbindable wire addr", "filecule-serve",
			append([]string{"-selftest", "-wire-addr", "256.256.256.256:1"}, tiny...), 1},
		{"serve negative exchange interval", "filecule-serve", fedSelftest("-peers", "b:1", "-exchange-interval", "-5s"), 1},
		{"serve zero exchange interval", "filecule-serve", fedSelftest("-exchange-interval", "0s"), 1},
		{"serve zero peer timeout", "filecule-serve", fedSelftest("-peers", "b:1", "-peer-timeout", "0s"), 1},
		{"serve site without wire addr", "filecule-serve", append([]string{"-selftest", "-site", "a"}, tiny...), 1},
		{"serve peer URL, not host:port", "filecule-serve", fedSelftest("-peers", "http://b:9091"), 1},

		// Success: exit 0.
		{"serve wire selftest ok", "filecule-serve",
			append([]string{"-selftest", "-wire-addr", "127.0.0.1:0"}, tiny...), 0},
		{"serve federated selftest ok", "filecule-serve", fedSelftest(), 0},
		{"serve wire addr with durable selftest", "filecule-serve",
			append([]string{"-selftest", "-wire-addr", "127.0.0.1:0", "-state-dir", t.TempDir()}, tiny...), 0},
		{"gen ok", "filecule-gen", append([]string{"-o", filepath.Join(t.TempDir(), "t.trace")}, tiny...), 0},
		{"sweep ok", "filecule-cachesim",
			append([]string{"-sweep", "-policies", "lru", "-grans", "file", "-sizes", "1"}, tiny...), 0},
		{"repro list ok", "filecule-repro", []string{"-list"}, 0},
		{"repro group ok", "filecule-repro", append([]string{"-exp", "sec5,table1"}, tiny...), 0},
		{"repro seeds ok", "filecule-repro", append([]string{"-seeds", "2", "-exp", "sec5,table1"}, tiny...), 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, out := exitCode(t, bins[tc.bin], tc.args...)
			if got != tc.want {
				t.Errorf("%s %v: exit %d, want %d\noutput:\n%s", tc.bin, tc.args, got, tc.want, out)
			}
		})
	}
	// A cache size that is not a finite positive byte count at the
	// workload's scale fails before any work, with and without -sweep: exit
	// 1 and no -o file (a sweep used to run the grid on +Inf and leave a
	// broken file; the table path printed a +Inf row and exited 0).
	for _, size := range []string{"nan", "inf", "1e30"} {
		for _, mode := range []string{"table", "sweep"} {
			t.Run("bad size "+size+" "+mode, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "sweep.json")
				args := append([]string{"-sizes", size, "-o", out}, tiny...)
				if mode == "sweep" {
					args = append(args, "-sweep")
				}
				got, output := exitCode(t, bins["filecule-cachesim"], args...)
				if got != 1 {
					t.Errorf("cachesim %v: exit %d, want 1\noutput:\n%s", args, got, output)
				}
				if _, err := os.Stat(out); !os.IsNotExist(err) {
					t.Errorf("cachesim %v: left an output file (stat: %v)", args, err)
				}
			})
		}
	}

	// Plain filecule-cachesim prints Figure 10's LRU pair as the sweep's
	// tables, byte for byte, and -o takes the tables, leaving stdout empty.
	stdout := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bins["filecule-cachesim"], append(args, tiny...)...).Output()
		if err != nil {
			t.Fatalf("cachesim %v: %v", args, err)
		}
		return string(out)
	}
	plain := stdout()
	if table := stdout("-sweep", "-policies", "lru", "-grans", "file,filecule", "-table"); plain != table || plain == "" {
		t.Errorf("plain cachesim printed\n%s\nwant what -sweep -policies lru -grans file,filecule -table prints\n%s", plain, table)
	}
	tableFile := filepath.Join(t.TempDir(), "t.out")
	if out := stdout("-table", "-o", tableFile); out != "" {
		t.Errorf("cachesim -table -o printed to stdout:\n%s", out)
	}
	if got, err := os.ReadFile(tableFile); err != nil || string(got) != plain {
		t.Errorf("cachesim -table -o wrote %q (%v), want the tables\n%s", got, err, plain)
	}

	// One seed is the plain report, byte for byte.
	repro := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bins["filecule-repro"], append(args, tiny...)...).Output()
		if err != nil {
			t.Fatalf("repro %v: %v", args, err)
		}
		return string(out)
	}
	if plain, one := repro("-exp", "sec5,table1"), repro("-exp", "sec5,table1", "-seeds", "1"); plain != one || plain == "" {
		t.Errorf("repro -seeds 1 printed\n%s\nwant what it prints without the flag\n%s", one, plain)
	}

	// Successful trace generation must produce a loadable trace.
	okTrace := filepath.Join(t.TempDir(), "ok.trace")
	if got, out := exitCode(t, bins["filecule-gen"], append([]string{"-o", okTrace}, tiny...)...); got != 0 {
		t.Fatalf("gen: exit %d\n%s", got, out)
	}
	if fi, err := os.Stat(okTrace); err != nil || fi.Size() == 0 {
		t.Fatalf("gen produced no trace: %v", err)
	}
}

// TestWorkloadSpecExitCodes pins the -workload spec contract across the
// tools: malformed specs are operational failures (exit 1) with descriptive
// errors, "-workload help" prints the adapter listing, and every adapter
// drives the tools to success.
func TestWorkloadSpecExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds commands; skipped in -short mode")
	}
	bins := buildCmds(t, "filecule-gen", "filecule-cachesim", "filecule-repro", "filecule-serve")

	dir := t.TempDir()
	kvCSV := filepath.Join(dir, "kv.csv")
	if got, out := exitCode(t, bins["filecule-gen"],
		"-kv-csv", "400", "-kv-keys", "50", "-kv-seed", "3", "-o", kvCSV); got != 0 {
		t.Fatalf("gen -kv-csv: exit %d\n%s", got, out)
	}

	sweepArgs := []string{"-sweep", "-policies", "lru", "-grans", "file", "-sizes", "1"}
	cases := []struct {
		name    string
		bin     string
		args    []string
		want    int
		wantSub string
	}{
		// Malformed specs: operational failures with descriptive errors.
		{"unknown adapter", "filecule-cachesim",
			append([]string{"-workload", "klingon"}, sweepArgs...), 1, "unknown adapter"},
		{"unknown option", "filecule-cachesim",
			append([]string{"-workload", "dzero,warp=9"}, sweepArgs...), 1, "unknown option"},
		{"bad option value", "filecule-cachesim",
			append([]string{"-workload", "dzero,seed=banana"}, sweepArgs...), 1, "seed"},
		{"missing key=value", "filecule-repro",
			[]string{"-workload", "dzero,seed", "-exp", "table1"}, 1, "not key=value"},
		{"duplicate option", "filecule-repro",
			[]string{"-workload", "dzero,seed=1,seed=2", "-exp", "table1"}, 1, "given twice"},
		{"kv-csv missing path", "filecule-cachesim",
			append([]string{"-workload", "kv-csv"}, sweepArgs...), 1, "path"},
		{"comma in a path", "filecule-cachesim",
			append([]string{"-workload", "file,path=" + filepath.Join(dir, "a,b.bin")}, sweepArgs...), 1,
			`"b.bin" is not key=value (spec values cannot contain commas)`},
		{"bad file scale", "filecule-cachesim",
			append([]string{"-workload", "file,path=" + kvCSV + ",scale=0"}, sweepArgs...), 1, "not positive"},
		{"gen bad spec", "filecule-gen",
			[]string{"-workload", "xrootd,one-touch=2", "-o", filepath.Join(dir, "x.trace")}, 1, "one-touch"},
		{"gen zero decay-days", "filecule-gen",
			[]string{"-workload", "xrootd,decay-days=0", "-o", filepath.Join(dir, "z.trace")}, 1, "decay-days=0"},
		{"gen NaN scale", "filecule-gen",
			[]string{"-workload", "dzero,seed=1,scale=NaN", "-o", filepath.Join(dir, "nan.trace")}, 1, "finite"},

		// -workload help prints the adapter listing (exit 1: nothing ran),
		// whichever of Open, Load and OpenOrdered the tool calls.
		{"workload help", "filecule-cachesim",
			append([]string{"-workload", "help"}, sweepArgs...), 1, "kv-csv"},
		{"workload help load", "filecule-repro", []string{"-workload", "help", "-exp", "table1"}, 1, "kv-csv"},
		{"workload list open", "filecule-serve", []string{"-workload", "list"}, 1, "kv-csv"},

		// Every adapter drives the tools to success.
		{"sweep dzero spec", "filecule-cachesim",
			append([]string{"-workload", "dzero,seed=1,scale=0.001"}, sweepArgs...), 0, ""},
		{"sweep xrootd spec", "filecule-cachesim",
			append([]string{"-workload", "xrootd,seed=1,scale=0.002"}, sweepArgs...), 0, ""},
		{"sweep kv-csv spec", "filecule-cachesim",
			append([]string{"-workload", "kv-csv,path=" + kvCSV + ",window=8"}, sweepArgs...), 0, ""},
		{"sweep shaped spec", "filecule-cachesim",
			append([]string{"-workload", "dzero,seed=1,scale=0.001,shape=burst,rps-start=5,rps-target=50,slot=30s"}, sweepArgs...), 0, ""},
		{"analyze kv-csv spec", "filecule-repro",
			[]string{"-workload", "kv-csv,path=" + kvCSV, "-exp", "table1"}, 0, ""},

		// The report names the workload it ran (the legacy flags' header
		// said "seed 1" whatever the spec).
		{"repro header names the spec", "filecule-repro",
			[]string{"-workload", "dzero,seed=7,scale=0.001"}, 0,
			"filecule reproduction report (dzero,seed=7,scale=0.001)\n"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, out := exitCode(t, bins[tc.bin], tc.args...)
			if got != tc.want {
				t.Errorf("%s %v: exit %d, want %d\noutput:\n%s", tc.bin, tc.args, got, tc.want, out)
			}
			if tc.wantSub != "" && !strings.Contains(out, tc.wantSub) {
				t.Errorf("%s %v: output missing %q:\n%s", tc.bin, tc.args, tc.wantSub, out)
			}
		})
	}
	// A refused spec writes nothing, not an empty or partial trace.
	for _, name := range []string{"x.trace", "nan.trace"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("gen left %s behind for a refused spec (stat: %v)", name, err)
		}
	}
}

// TestRetiredFlagsExitCodes: the flags that named a workload before the
// -workload spec did, the benchgate thresholds that had one value, and
// cachesim's -policy (now -policies) and -ablation (filecule-repro -exp
// ablation) are ordinary unknown flags now: usage text and exit 2, on every
// tool that had them.
func TestRetiredFlagsExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds commands; skipped in -short mode")
	}
	aliases := []string{"-trace", "-seed", "-scale", "-format"}
	retired := map[string][]string{
		"filecule-cachesim": append([]string{"-policy", "-ablation"}, aliases...),
		"filecule-repro":    aliases,
		"filecule-serve":    append([]string{"-wal-segment-bytes"}, aliases...),
		"filecule-gen":      {"-seed", "-scale", "-convert"},
		"filecule-benchgate": {"-speedup-floor", "-decode-speedup-floor", "-mmap-decode-speedup-floor",
			"-map-iterate-allocs-ceiling", "-kv-decode-allocs-ceiling", "-wire-speedup-floor",
			"-wal-overhead-ceiling", "-wire-rps-floor", "-wire-p99-ceiling"},
	}
	names := make([]string, 0, len(retired))
	for name := range retired {
		names = append(names, name)
	}
	bins := buildCmds(t, names...)
	for name, flags := range retired {
		for _, f := range flags {
			got, out := exitCode(t, bins[name], f, "1")
			if got != 2 || !strings.Contains(out, "flag provided but not defined: "+f) {
				t.Errorf("%s %s 1: exit %d, want 2 and the flag named as undefined\noutput:\n%s", name, f, got, out)
			}
		}
	}
}

// TestDurableExitCodes pins the crash-safety flag contract of
// filecule-serve: durability misconfiguration and unrecoverable state both
// exit 1 before serving a single request, and corruption errors name the
// failing chunk's byte offset; a state directory left by a clean run
// recovers and passes the selftest.
func TestDurableExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds filecule-serve and runs selftests; skipped in -short mode")
	}
	bins := buildCmds(t, "filecule-serve", "filecule-state")
	serve := bins["filecule-serve"]
	state := bins["filecule-state"]

	// filecule-state usage contract: missing or unknown subcommands and a
	// missing -dir are usage errors; a nonexistent directory is operational.
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"state no subcommand", nil, 2},
		{"state unknown subcommand", []string{"restore"}, 2},
		{"state dump without dir", []string{"dump"}, 2},
		{"state dump missing dir", []string{"dump", "-dir", filepath.Join(t.TempDir(), "nope")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, out := exitCode(t, state, tc.args...); got != tc.want {
				t.Errorf("exit %d, want %d\noutput:\n%s", got, tc.want, out)
			}
		})
	}

	// Flag contract: checkpointing without a state directory, an
	// unparseable sync cadence, and an uncreatable state directory are all
	// operational failures.
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"checkpoint-interval without state-dir", []string{"-checkpoint-interval", "1s"}},
		{"bad wal-sync", append([]string{"-selftest", "-state-dir", t.TempDir(), "-wal-sync", "sometimes"}, tiny...)},
		{"unwritable state dir", append([]string{"-selftest", "-state-dir", "/dev/null/state"}, tiny...)},
		{"peers without site", []string{"-peers", "http://127.0.0.1:1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, out := exitCode(t, serve, tc.args...); got != 1 {
				t.Errorf("exit %d, want 1\noutput:\n%s", got, out)
			}
		})
	}

	// A durable selftest initializes the state directory, restarts from it
	// mid-trace, and must pass.
	stateDir := filepath.Join(t.TempDir(), "state")
	if got, out := exitCode(t, serve,
		append([]string{"-selftest", "-state-dir", stateDir, "-wal-sync", "commit"}, tiny...)...); got != 0 {
		t.Fatalf("durable selftest: exit %d\n%s", got, out)
	}

	// A clean state directory dumps with exit 0 and shows the epoch chain.
	if got, out := exitCode(t, state, "dump", "-dir", stateDir); got != 0 {
		t.Errorf("dump of clean state dir: exit %d\n%s", got, out)
	} else if !strings.Contains(out, "checkpoint-") || !strings.Contains(out, "wal-") {
		t.Errorf("dump output missing the epoch chain:\n%s", out)
	}
	if got, out := exitCode(t, state, "dump", "-dir", stateDir, "-groups"); got != 0 || !strings.Contains(out, "group ") {
		t.Errorf("dump -groups: exit %d, per-group lines missing\n%s", got, out)
	}

	// The same restart with the jobs ingested over the wire listener, the
	// production ingest path: it recovers, both surfaces answer the same
	// partition, and the directory holds one WAL per epoch, the second
	// based where the first ends.
	wireDir := filepath.Join(t.TempDir(), "state")
	got, out := exitCode(t, serve, append([]string{"-selftest", "-state-dir", wireDir, "-wire-addr", "127.0.0.1:0", "-batch", "8"}, tiny...)...)
	if got != 0 || !strings.Contains(out, "recovered ") || !strings.Contains(out, "wire partition: byte-identical") {
		t.Errorf("durable selftest over wire: exit %d, want 0 with the recovery and the wire partition named\n%s", got, out)
	}
	if rep, err := durable.Inspect(wireDir); err != nil || len(rep.Segments) != 2 || len(rep.Problems) > 0 ||
		rep.Segments[1].Base != rep.Segments[0].Base+rep.Segments[0].Jobs {
		t.Errorf("durable selftest over wire left no clean two-epoch WAL chain: %+v, %v", rep, err)
	}
	if got, out := exitCode(t, state, "dump", "-dir", wireDir); got != 0 || !strings.Contains(out, "wal-1") {
		t.Errorf("dump of the wire selftest's state dir: exit %d, want 0 and wal-1 listed\n%s", got, out)
	}

	// A newest WAL whose header parses but does not continue the chain (here:
	// its base forged one past its checkpoint's count) is corruption, not a
	// crash artifact: the dump and the server both exit 1 and name it, and
	// the server leaves it as it was.
	badBase := t.TempDir()
	ents, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(stateDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(badBase, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := durable.Inspect(badBase)
	if err != nil || len(rep.Segments) < 2 || len(rep.Problems) > 0 {
		t.Fatalf("selftest left no clean two-epoch WAL chain to damage: %+v, %v", rep, err)
	}
	newest := rep.Segments[len(rep.Segments)-1]
	raw, err := os.ReadFile(newest.Path)
	if err != nil {
		t.Fatal(err)
	}
	const walMagic = "filecule-wal/v1\n"
	hdr := binary.AppendUvarint(binary.AppendUvarint([]byte{'H'}, newest.Epoch), uint64(newest.Base+1))
	headerEnd := len(walMagic) + 1 + int(raw[len(walMagic)]) + 4 // magic, then the header's frame: length byte, payload, CRC
	forged := append(trace.AppendChunk([]byte(walMagic), hdr), raw[headerEnd:]...)
	if err := os.WriteFile(newest.Path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	newest.Bytes = int64(len(forged))
	for _, tc := range []struct {
		name string
		bin  string
		args []string
	}{
		{"dump of a chain with a bad base", state, []string{"dump", "-dir", badBase}},
		{"serve on a chain with a bad base", serve, append([]string{"-selftest", "-state-dir", badBase}, tiny...)},
	} {
		got, out := exitCode(t, tc.bin, tc.args...)
		if got != 1 || !strings.Contains(out, filepath.Base(newest.Path)) || !strings.Contains(out, "does not chain") {
			t.Errorf("%s: exit %d, want 1 and %s named as not chaining\noutput:\n%s", tc.name, got, filepath.Base(newest.Path), out)
		}
	}
	if fi, err := os.Stat(newest.Path); err != nil || fi.Size() != newest.Bytes {
		t.Errorf("the refused server changed %s: %v bytes, was %d (%v)", newest.Path, fi, newest.Bytes, err)
	}

	// A listener that cannot bind fails the server with exit 1, but only
	// after the shutdown it owes the state directory: the checkpoint that
	// makes every acknowledged observe durable, and the close.
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	busyDir := filepath.Join(t.TempDir(), "state")
	if got, out := exitCode(t, serve, append([]string{"-state-dir", busyDir, "-addr", held.Addr().String()}, tiny...)...); got != 1 {
		t.Errorf("serve on a held address: exit %d, want 1\noutput:\n%s", got, out)
	}
	if got, out := exitCode(t, state, "dump", "-dir", busyDir); got != 0 || !strings.Contains(out, "checkpoint-1") {
		t.Errorf("serve on a held address skipped its shutdown checkpoint: dump exit %d\n%s", got, out)
	}

	// Corrupt every checkpoint and remove the WALs: startup must refuse to
	// serve and say where the corruption is.
	ents, err = os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, ent := range ents {
		path := filepath.Join(stateDir, ent.Name())
		if strings.HasPrefix(ent.Name(), "wal-") {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("selftest left no checkpoint files to corrupt")
	}
	got, out = exitCode(t, serve, append([]string{"-selftest", "-state-dir", stateDir}, tiny...)...)
	if got != 1 {
		t.Errorf("corrupt state: exit %d, want 1\noutput:\n%s", got, out)
	}
	if !strings.Contains(out, "byte offset") {
		t.Errorf("corruption error does not name the byte offset:\n%s", out)
	}

	// The dump subcommand must agree: exit 1 and name the byte offset.
	got, out = exitCode(t, state, "dump", "-dir", stateDir)
	if got != 1 {
		t.Errorf("dump of corrupt state dir: exit %d, want 1\noutput:\n%s", got, out)
	}
	if !strings.Contains(out, "byte offset") {
		t.Errorf("dump corruption finding does not name the byte offset:\n%s", out)
	}
}

// TestFormatFlagExitCodes pins filecule-gen's -format / -stream and the file
// adapter's format option: binary traces round through the tools, asserted
// formats are enforced, and corrupt binary input fails loudly.
func TestFormatFlagExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds commands; skipped in -short mode")
	}
	bins := buildCmds(t, "filecule-gen", "filecule-cachesim", "filecule-repro")

	dir := t.TempDir()
	textTrace := filepath.Join(dir, "t.trace")
	binTrace := filepath.Join(dir, "t.bin")

	if got, out := exitCode(t, bins["filecule-gen"], append([]string{"-o", textTrace}, tiny...)...); got != 0 {
		t.Fatalf("gen text: exit %d\n%s", got, out)
	}
	if got, out := exitCode(t, bins["filecule-gen"],
		"-workload", "file,path="+textTrace, "-format", "bin", "-o", binTrace); got != 0 {
		t.Fatalf("gen convert: exit %d\n%s", got, out)
	}
	binBytes, err := os.ReadFile(binTrace)
	if err != nil || len(binBytes) == 0 {
		t.Fatalf("conversion produced no binary trace: %v", err)
	}
	txt, err := os.ReadFile(textTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(binBytes) >= len(txt) {
		t.Errorf("binary trace (%d bytes) not smaller than text (%d bytes)", len(binBytes), len(txt))
	}

	// A streamed binary generation must also load.
	streamBin := filepath.Join(dir, "stream.bin")
	if got, out := exitCode(t, bins["filecule-gen"],
		append([]string{"-stream", "-format", "bin", "-o", streamBin}, tiny...)...); got != 0 {
		t.Fatalf("gen -stream: exit %d\n%s", got, out)
	}

	// Corrupt binary: flip a byte in the middle so a chunk CRC fails.
	corrupt := filepath.Join(dir, "corrupt.bin")
	cb := append([]byte(nil), binBytes...)
	cb[len(cb)/2] ^= 0x40
	if err := os.WriteFile(corrupt, cb, 0o644); err != nil {
		t.Fatal(err)
	}

	// The traces were recorded at scale 0.001; the spec says so, so the
	// sweep's cache sizes match.
	sweepFile := func(path, more string) []string {
		return []string{"-workload", "file,path=" + path + ",scale=0.001" + more,
			"-sweep", "-policies", "lru", "-grans", "file", "-sizes", "1"}
	}
	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		{"sweep reads bin", "filecule-cachesim", sweepFile(binTrace, ""), 0},
		{"sweep reads streamed bin", "filecule-cachesim", sweepFile(streamBin, ""), 0},
		{"sweep rejects corrupt bin", "filecule-cachesim", sweepFile(corrupt, ""), 1},
		{"cachesim format mismatch", "filecule-cachesim", sweepFile(textTrace, ",format=bin"), 1},
		{"cachesim bad format", "filecule-cachesim", sweepFile(binTrace, ",format=xml"), 1},
		{"gen bad format", "filecule-gen", append([]string{"-format", "xml"}, tiny...), 1},
		{"gen convert missing input", "filecule-gen",
			[]string{"-workload", "file,path=" + filepath.Join(dir, "missing.trace"), "-o", filepath.Join(dir, "x.bin")}, 1},
		{"analyze format mismatch", "filecule-repro",
			[]string{"-workload", "file,path=" + binTrace + ",format=text", "-exp", "table1"}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, out := exitCode(t, bins[tc.bin], tc.args...)
			if got != tc.want {
				t.Errorf("%s %v: exit %d, want %d\noutput:\n%s", tc.bin, tc.args, got, tc.want, out)
			}
		})
	}
}

// The documents quote command lines, and a flag can be retired without
// anybody rereading them. This test runs every `filecule-<cmd> ...` line it
// finds in README.md, DESIGN.md, EXPERIMENTS.md, the Makefile and the cmds'
// package comments past the named binary's own -h: a flag the usage text does
// not list, or a cmd with no directory under cmd/, fails. The documents also
// quote speedups, and those are recomputed from BENCH_baseline.json.
package filecule_test

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A quoted command line: the cmd name and what follows it, up to the end
	// of the line or of the code span.
	cmdLineRE = regexp.MustCompile("\\bfilecule-([a-z]+)[ \t]+([^\n`]*)")
	// A path under cmd/ names a cmd whether or not flags follow.
	cmdPathRE = regexp.MustCompile(`\bcmd/(filecule-[a-z]+)`)
	flagRE    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	usageRE   = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
)

// quotedFlags returns the flags a quoted argument string passes to its cmd:
// everything before a comment, a pipe, a redirect or the next command.
func quotedFlags(args string) []string {
	var flags []string
	for _, tok := range strings.Fields(args) {
		if tok == "#" || tok == "|" || tok == ";" || tok == "&&" || tok == ">" || strings.Contains(tok, "filecule-") {
			break
		}
		if m := flagRE.FindStringSubmatch(tok); m != nil {
			flags = append(flags, m[1])
		}
	}
	return flags
}

func TestQuotedCommandLinesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command; skipped in -short mode")
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmds found: %v", err)
	}
	docs := map[string]string{}
	var names []string
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = f.Doc.Text()
		names = append(names, filepath.Base(filepath.Dir(path)))
	}
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = strings.ReplaceAll(string(b), "\\\n", " ") // a continued line is one command
	}

	// What each binary's usage text lists; filecule-state's flags are its
	// subcommand's.
	bins := buildCmds(t, names...)
	known := map[string]map[string]bool{}
	for name, bin := range bins {
		help := []string{"-h"}
		if name == "filecule-state" {
			help = []string{"dump", "-h"}
		}
		out, _ := exec.Command(bin, help...).CombinedOutput()
		known[name] = map[string]bool{}
		for _, m := range usageRE.FindAllStringSubmatch(string(out), -1) {
			known[name][m[1]] = true
		}
		if len(known[name]) == 0 {
			t.Fatalf("%s %v lists no flags:\n%s", name, help, out)
		}
	}

	lines := 0
	for path, text := range docs {
		for _, m := range cmdPathRE.FindAllStringSubmatch(text, -1) {
			if known[m[1]] == nil {
				t.Errorf("%s names cmd/%s, which does not exist", path, m[1])
			}
		}
		for _, m := range cmdLineRE.FindAllStringSubmatch(text, -1) {
			name, flags := "filecule-"+m[1], quotedFlags(m[2])
			if len(flags) == 0 {
				continue // prose ("filecule-aware caching"), or a bare mention
			}
			lines++
			if known[name] == nil {
				t.Errorf("%s quotes %q: no cmd/%s", path, strings.TrimSpace(m[0]), name)
				continue
			}
			for _, f := range flags {
				if !known[name][f] {
					t.Errorf("%s quotes %q: %s has no flag -%s", path, strings.TrimSpace(m[0]), name, f)
				}
			}
		}
	}
	if lines < 20 {
		t.Errorf("found %d quoted command lines, expected dozens: the extraction is broken", lines)
	}
}

// TestQuotedRatiosMatchBaseline: each speedup README.md and DESIGN.md quote
// is the ns/op ratio BENCH_baseline.json records, to one decimal, so a
// refreshed baseline that moves one fails here until the prose follows.
func TestQuotedRatiosMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]float64
		}
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	nsop := map[string]float64{}
	for _, b := range base.Benchmarks {
		nsop[b.Name] = b.Metrics["ns/op"]
	}
	for _, r := range []struct{ slow, fast string }{
		{"SweepSequential", "SweepEngine"},
		{"ServeTCPJSON", "ServeTCPWire"},
	} {
		if nsop[r.slow] == 0 || nsop[r.fast] == 0 {
			t.Fatalf("BENCH_baseline.json has no ns/op for %s or %s", r.slow, r.fast)
		}
		quoted := fmt.Sprintf("%.1f×", nsop[r.slow]/nsop[r.fast])
		for _, doc := range []string{"README.md", "DESIGN.md"} {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(text), quoted) {
				t.Errorf("%s does not quote %s, the %s/%s ns/op ratio in BENCH_baseline.json", doc, quoted, r.slow, r.fast)
			}
		}
	}
}

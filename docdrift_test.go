// The documents quote command lines, and a flag can be retired without
// anybody rereading them. This test runs every `filecule-<cmd> ...` line it
// finds in README.md, DESIGN.md, EXPERIMENTS.md, the Makefile and the cmds'
// package comments past the named binary's own -h: a flag the usage text does
// not list, or a cmd with no directory under cmd/, fails. The documents also
// quote speedups, and those are recomputed from BENCH_baseline.json, and
// README's endpoint table must list exactly the routes the server mounts.
// EXPERIMENTS.md's measured tables are blocks its own command lines print,
// rerun here byte for byte.
package filecule_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
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

// The three documents the reference checks below read.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// A source line: `bin.go:120`, `internal/trace/bin.go:120`, or a range
	// `main.go:266–272`.
	fileLineRE = regexp.MustCompile(`([A-Za-z0-9_./-]*[A-Za-z0-9_]\.go):([0-9]+)(?:[–-]([0-9]+))?`)
	fencedRE   = regexp.MustCompile("(?s)```.*?```")
	// A code span that opens with a package-qualified name.
	qualifiedRE = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)[^`]*`")
	// A citation of a DESIGN.md section, in the documents or a Go comment.
	designCiteRE = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\s*([0-9]+)`)
	// DESIGN.md's own cross-references and its section headings.
	sectionRefRE     = regexp.MustCompile(`§\s*([0-9]+)`)
	sectionHeadingRE = regexp.MustCompile(`(?m)^## ([0-9]+)\. `)
)

func readDocs(t *testing.T) map[string]string {
	t.Helper()
	docs := map[string]string{}
	for _, path := range referenceDocs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = string(b)
	}
	return docs
}

// goFiles lists the module's .go files, slash-separated, outside testdata.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocFileLineRefsResolve: every `file.go:NN` the documents quote names
// exactly one source file (by its path or a path suffix) and a line inside it.
func TestDocFileLineRefsResolve(t *testing.T) {
	files := goFiles(t)
	for path, text := range readDocs(t) {
		for _, m := range fileLineRE.FindAllStringSubmatch(text, -1) {
			var match []string
			for _, f := range files {
				if f == m[1] || strings.HasSuffix(f, "/"+m[1]) {
					match = append(match, f)
				}
			}
			if len(match) != 1 {
				t.Errorf("%s cites %s: it names %d source files %v, want one", path, m[0], len(match), match)
				continue
			}
			src, err := os.ReadFile(match[0])
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Count(string(src), "\n")
			for _, n := range m[2:] {
				if n == "" {
					continue // no range end
				}
				if line, _ := strconv.Atoi(n); line < 1 || line > lines {
					t.Errorf("%s cites %s: %s has %d lines", path, m[0], match[0], lines)
				}
			}
		}
	}
}

// TestDocQualifiedNamesResolve: every code span of the documents that opens
// with `pkg.Name`, where pkg is an internal package, names an identifier that
// package declares at top level outside its tests.
func TestDocQualifiedNamesResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package name → top-level identifiers
	for _, f := range goFiles(t) {
		if !strings.HasPrefix(f, "internal/") || strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ids := decls[file.Name.Name]
		if ids == nil {
			ids = map[string]bool{}
			decls[file.Name.Name] = ids
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ids[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							ids[n.Name] = true
						}
					}
				}
			}
		}
	}
	refs := 0
	for path, text := range readDocs(t) {
		for _, m := range qualifiedRE.FindAllStringSubmatch(fencedRE.ReplaceAllString(text, ""), -1) {
			pkg, name := m[1], m[2]
			// Not an internal package, a file name, or a ledger metric
			// (`durable.wal_self_us_per_job`): Go names carry no underscores.
			if decls[pkg] == nil || name == "go" || strings.Contains(name, "_") && strings.ToLower(name) == name {
				continue
			}
			refs++
			if !decls[pkg][name] {
				t.Errorf("%s quotes %s: package %s declares no %s", path, m[0], pkg, name)
			}
		}
	}
	t.Logf("%d package-qualified names checked", refs)
	if refs < 40 {
		t.Errorf("found %d package-qualified names, expected dozens: the extraction is broken", refs)
	}
}

// TestDesignCitationsResolve: every `DESIGN.md §N` or `DESIGN §N` in the
// documents and in non-test Go comments, and every `§N` inside DESIGN.md,
// names one of DESIGN.md's numbered sections, which run 1, 2, ... in order.
func TestDesignCitationsResolve(t *testing.T) {
	docs := readDocs(t)
	headings := sectionHeadingRE.FindAllStringSubmatch(docs["DESIGN.md"], -1)
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	for i, m := range headings {
		if want := strconv.Itoa(i + 1); m[1] != want {
			t.Errorf("DESIGN.md section %s is heading %d, want section %s", m[1], i+1, want)
		}
	}
	check := func(where, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > len(headings) {
				t.Errorf("%s cites %q: DESIGN.md has no section %s", where, m[0], m[1])
			}
		}
	}
	for path, text := range docs {
		check(path, text, designCiteRE)
	}
	check("DESIGN.md", docs["DESIGN.md"], sectionRefRE)
	for _, f := range goFiles(t) {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range file.Comments {
			check(f, c.Text(), designCiteRE)
		}
	}
}

var (
	// A route the JSON server mounts: the pattern of one s.mux.HandleFunc.
	muxRouteRE = regexp.MustCompile(`s\.mux\.HandleFunc\("([^"]+)"`)
	// The code spans of a table row's first cell.
	firstCellRE = regexp.MustCompile("^\\|([^|]*)\\|")
	codeSpanRE  = regexp.MustCompile("`([^`]+)`")
)

// TestReadmeRoutesMatchServer: README's endpoint table lists exactly the
// routes internal/server mounts, its pprof routes as one /debug/pprof/*.
func TestReadmeRoutesMatchServer(t *testing.T) {
	src, err := os.ReadFile("internal/server/server.go")
	if err != nil {
		t.Fatal(err)
	}
	mounted := map[string]bool{}
	for _, m := range muxRouteRE.FindAllStringSubmatch(string(src), -1) {
		route := m[1]
		if strings.HasPrefix(route, "/debug/pprof/") {
			route = "/debug/pprof/*"
		}
		mounted[route] = true
	}
	readme := readDocs(t)["README.md"]
	_, table, ok := strings.Cut(readme, "| Endpoint | Meaning |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no endpoint table")
	}
	listed := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cell := firstCellRE.FindStringSubmatch(row)
		if cell == nil {
			break
		}
		for _, m := range codeSpanRE.FindAllStringSubmatch(cell[1], -1) {
			listed[m[1]] = true
		}
	}
	if len(mounted) < 10 || len(listed) == 0 {
		t.Fatalf("found %d mounted routes and %d README rows: the extraction is broken", len(mounted), len(listed))
	}
	for route := range mounted {
		if !listed[route] {
			t.Errorf("internal/server mounts %q; README's endpoint table does not list it", route)
		}
	}
	for route := range listed {
		if !mounted[route] {
			t.Errorf("README's endpoint table lists %q; internal/server mounts no such route", route)
		}
	}
}

// TestDesignFitsItsCap: DESIGN.md holds contracts only, in at most 40 960
// bytes; a new measurement goes in CHANGES.md and DESIGN cites it.
func TestDesignFitsItsCap(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 40960 {
		t.Errorf("DESIGN.md is %d bytes, over its 40 960-byte cap", fi.Size())
	}
}

var updateExperiments = flag.Bool("update-experiments", false,
	"rewrite the rendered blocks of EXPERIMENTS.md with what their command lines print")

var (
	// A rendered block: a fence, the `$ filecule-...` lines, what they
	// print, and the closing fence.
	renderedBlockRE = regexp.MustCompile("(?ms)^```[a-z]*\n((?:\\$ filecule-[^\n]*\n)+)(.*?)^```$")
	specScaleRE     = regexp.MustCompile(`scale=([0-9.]+)`)
)

// renderedBlock is one block of EXPERIMENTS.md: its command lines, what the
// document says they print, and where that text sits in the document.
type renderedBlock struct {
	line       int
	cmds       [][]string
	want       string
	start, end int
}

// slow reports whether a command line names a workload above scale 0.05,
// which the plain test run leaves to the slow-tagged one.
func (b renderedBlock) slow() bool {
	for _, args := range b.cmds {
		for _, m := range specScaleRE.FindAllStringSubmatch(strings.Join(args, " "), -1) {
			if v, _ := strconv.ParseFloat(m[1], 64); v > 0.05 {
				return true
			}
		}
	}
	return false
}

func renderedBlocks(t *testing.T, doc string) []renderedBlock {
	t.Helper()
	var blocks []renderedBlock
	for _, m := range renderedBlockRE.FindAllStringSubmatchIndex(doc, -1) {
		b := renderedBlock{line: strings.Count(doc[:m[0]], "\n") + 1, want: doc[m[4]:m[5]], start: m[4], end: m[5]}
		for _, l := range strings.Split(strings.TrimSuffix(doc[m[2]:m[3]], "\n"), "\n") {
			b.cmds = append(b.cmds, strings.Fields(strings.TrimPrefix(l, "$ ")))
		}
		blocks = append(blocks, b)
	}
	if len(blocks) < 10 {
		t.Fatalf("EXPERIMENTS.md has %d rendered blocks, expected dozens: the extraction is broken", len(blocks))
	}
	return blocks
}

// checkExperiments reruns EXPERIMENTS.md's rendered blocks, the slow ones or
// the rest, each in a directory of its own on freshly built binaries, and
// fails on any byte that differs from the document (or, with
// -update-experiments, writes what they printed into it).
func checkExperiments(t *testing.T, slow bool) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	var blocks []renderedBlock
	names := map[string]bool{}
	for _, b := range renderedBlocks(t, doc) {
		if b.slow() == slow {
			blocks = append(blocks, b)
			for _, args := range b.cmds {
				names[args[0]] = true
			}
		}
	}
	var cmds []string
	for name := range names {
		cmds = append(cmds, name)
	}
	bins := buildCmds(t, cmds...)

	got := make([]string, len(blocks))
	errs := make([]error, len(blocks))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = runBlock(bins, blocks[i].cmds, t.TempDir())
			}
		}()
	}
	for i := range blocks {
		next <- i
	}
	close(next)
	wg.Wait()

	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		switch {
		case errs[i] != nil:
			t.Errorf("EXPERIMENTS.md:%d: %v", b.line, errs[i])
		case got[i] == b.want:
		case *updateExperiments:
			doc = doc[:b.start] + got[i] + doc[b.end:]
		default:
			wl, gl := strings.Split(b.want, "\n"), strings.Split(got[i], "\n")
			n := 0
			for n < len(wl) && n < len(gl) && wl[n] == gl[n] {
				n++
			}
			at := func(l []string) string {
				if n < len(l) {
					return l[n]
				}
				return "(end of output)"
			}
			t.Errorf("EXPERIMENTS.md:%d: %s prints, at line %d of the block's output,\n%q\nwhere the document says\n%q\n(go test -run %s -update-experiments rewrites the block)",
				b.line, strings.Join(b.cmds[0], " "), n+1, at(gl), at(wl), t.Name())
		}
	}
	if *updateExperiments && doc != string(raw) {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d blocks rerun", len(blocks))
}

// runBlock runs a block's command lines in order in dir and returns what
// they printed to stdout, together.
func runBlock(bins map[string]string, cmds [][]string, dir string) (string, error) {
	var out bytes.Buffer
	for _, args := range cmds {
		var stderr bytes.Buffer
		cmd := exec.Command(bins[args[0]], args[1:]...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, &stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("%s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
	}
	return out.String(), nil
}

// TestExperimentsRender: every block of EXPERIMENTS.md that opens with
// `$ filecule-...` lines is what those lines print, at workloads up to scale
// 0.05; `make doc-slow` runs the larger ones.
func TestExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands; skipped in -short mode")
	}
	checkExperiments(t, false)
}

// TestExperimentsProseNumbers: every decimal number EXPERIMENTS.md states in
// prose (outside code) appears in a rendered block of the same section, so a
// rerendered block cannot leave a stale number in the text around it.
func TestExperimentsProseNumbers(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	fence := regexp.MustCompile("(?ms)^```.*?^```$")
	decimal := regexp.MustCompile(`\b[0-9]+\.[0-9]+\b`)
	checked := 0
	for _, section := range strings.Split("\n"+string(raw), "\n## ") {
		title, _, _ := strings.Cut(section, "\n")
		var blocks strings.Builder
		for _, m := range renderedBlockRE.FindAllString(section, -1) {
			blocks.WriteString(m)
		}
		prose := codeSpanRE.ReplaceAllString(fence.ReplaceAllString(section, ""), "")
		for _, n := range decimal.FindAllString(prose, -1) {
			checked++
			if !strings.Contains(blocks.String(), n) {
				t.Errorf("EXPERIMENTS.md section %q states %s, which none of its rendered blocks prints", title, n)
			}
		}
	}
	t.Logf("%d prose numbers checked", checked)
}

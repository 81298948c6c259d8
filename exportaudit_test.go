// An exported identifier under internal/ that only _test.go files mention is
// a shipped oracle or a leftover: it costs a reader the same as live code and
// no program runs it. An exported struct field that no shipped file ever sets
// is the same thing for options: a knob with one value. This test lists both
// by name — a parse, no type check — and fails on any that testOnlyExports or
// neverSetFields does not excuse, so one is either deleted with its unit
// test, moved into test code, made a constant, or kept for a stated reason.
package filecule_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports are the exports no non-test file names, and why each stays.
var testOnlyExports = map[string]string{
	// Fixtures and oracles that tests of other code are built on.
	"ExchangeAll":      "fed.Node: the federation tests step gossip rounds by hand",
	"GenerateXRootD":   "synth: the golden and shape tests materialise the workload through it",
	"InFlight":         "grid.Network: tests read the flow table",
	"KSTest":           "stats: synth's TestGeneratorDistributionStability compares size distributions with it",
	"NumStored":        "prefetch.WorkingSet: tests read the sequence store",
	"ObserveSource":    "core.Engine: the codec differentials drain every trace.Source through it",
	"ObserveTrace":     "core.Engine and the reference Refiner: how tests and benchmarks load a trace",
	"RecvObserve":      "wire.Client, with SendObserve: the protocol's pipelining primitive; the gated BenchmarkServeTCPWire and TestClientServerOverTCP drive a depth-64 window through it",
	"SendObserve":      "wire.Client: see RecvObserve",
	"SimpleJob":        "trace.Builder: the small-trace fixture of a dozen test files",
	"SitesPerFilecule": "core: synth's hot-filecule test reads the site count",
	"Torn":             "trace.ChunkError: the torn-versus-corrupt tests classify errors with it",
	"Total":            "stats.Histogram: mass-conservation tests sum the bins",
	"Train":            "prefetch.WorkingSet: loads the history the Suggest tests match against",
	"Used":             "cache.Sim: capacity invariants in the policy tests",
	"Wrap":             "fed/faultnet: the chaos tests inject faults through it",

	// Called through an interface, never by name.
	"Less":   "sim.eventHeap: container/heap",
	"Unwrap": "trace.ChunkError: errors.Is / errors.As",

	// PAPER.md is truncated; these are the only transcription of the
	// paper's numbers.
	"PaperDistinctFiles":    "paper constant",
	"PaperFileAccesses":     "paper constant",
	"PaperHotFileculeFiles": "paper constant",
	"PaperHotFileculeGB":    "paper constant",
	"PaperHotFileculeJobs":  "paper constant",
	"PaperHotFileculeSites": "paper constant",
	"PaperHotFileculeUsers": "paper constant",
	"PaperJobsWithFileInfo": "paper constant",
}

// neverSetFields are the exported struct fields under internal/ that no
// non-test file sets — by composite-literal key, assignment, ++/-- or taking
// the address, outside a package's own withDefaults — and why each stays
// exported.
var neverSetFields = map[string]string{
	// fed/faultnet is the fault-injection harness of the federation chaos
	// tests (see Wrap above): only they write a Plan.
	"Drop":        "faultnet.Plan: the chaos matrix sets the fault probabilities",
	"Corrupt":     "faultnet.Plan",
	"Duplicate":   "faultnet.Plan",
	"Delay":       "faultnet.Plan, with DelayMax",
	"DelayMax":    "faultnet.Plan",
	"HealAfter":   "faultnet.Plan: the eventual connectivity the convergence differential needs",
	"Partitioned": "faultnet.Plan: the partition-and-heal tests script it",

	// Model parameters the experiments leave at their defaults and the
	// package's own tests vary: still to settle, each with those tests, as a
	// constant or an experiment that sweeps it.
	"UploadSlots":   "swarm.ChunkScenario, with DownloadSlots: the unchoke-slot tests set 1 and 4",
	"DownloadSlots": "swarm.ChunkScenario",
	"SeedAfterDone": "swarm.Scenario and ChunkScenario: the altruistic-seeding tests turn it on",

	// Only fed's withDefaults writes these; the breaker tests shorten them
	// to open and re-probe a breaker in milliseconds.
	"BreakerFailures": "fed.Config: the breaker tests open a breaker after 3 failures",
	"BreakerCooldown": "fed.Config: the breaker and chaos tests cool down in 50 ms or less",
}

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Pos{} // exported name under internal/ -> a declaration
	fields := map[string]token.Pos{}   // exported struct field under internal/ -> a declaration
	declIdent := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build: no source of ours
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		declare := func(id *ast.Ident) {
			declIdent[id] = true
			if id.IsExported() {
				declared[id.Name] = id.Pos()
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declare(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										fields[id.Name] = id.Pos()
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used, set := map[string]bool{}, map[string]bool{}
	setSel := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			set[sel.Sel.Name] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A package's own withDefaults fills in the zero value: a
				// field only it writes is a knob no caller turns. Its
				// names still count as uses.
				if n.Name.Name == "withDefaults" {
					ast.Inspect(n, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && !declIdent[id] {
							used[id.Name] = true
						}
						return true
					})
					return false
				}
			case *ast.Ident:
				if !declIdent[n] {
					used[n.Name] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					setSel(lhs)
				}
			case *ast.IncDecStmt:
				setSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setSel(n.X)
				}
			}
			return true
		})
	}

	for name, pos := range declared {
		if _, excused := testOnlyExports[name]; !used[name] && !excused {
			t.Errorf("%s: %s is exported but only tests use it: delete it, unexport it, or add it to testOnlyExports with the reason",
				fset.Position(pos), name)
		}
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok || used[name] {
			t.Errorf("testOnlyExports lists %s, which is no longer a test-only export", name)
		}
	}

	for name, pos := range fields {
		if _, excused := neverSetFields[name]; !set[name] && !excused {
			t.Errorf("%s: no non-test file sets exported field %s: make it a constant, unexport it, or add it to neverSetFields with the reason",
				fset.Position(pos), name)
		}
	}
	for name := range neverSetFields {
		if _, ok := fields[name]; !ok || set[name] {
			t.Errorf("neverSetFields lists %s, which is no longer a never-set field", name)
		}
	}
}

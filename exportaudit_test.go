// An exported identifier under internal/ that only _test.go files mention is
// a shipped oracle or a leftover: it costs a reader the same as live code and
// no program runs it. This test lists them by name — a parse, no type check —
// and fails on any that testOnlyExports does not excuse, so one is either
// deleted with its unit test, moved into test code, or kept for a stated
// reason.
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
	"NumRows":          "report.Table: experiments and report tests assert tables are not empty",
	"NumStored":        "prefetch.WorkingSet: tests read the sequence store",
	"ObserveSource":    "core.Engine: the codec differentials drain every trace.Source through it",
	"ObserveTrace":     "core.Engine and the reference Refiner: how tests and benchmarks load a trace",
	"OpenMapping":      "trace: the mapped-substrate tests and benchmarks open files through it",
	"Pending":          "wire.Client: pipeline tests read the depth (sim.Kernel.Pending: see below)",
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

	// Used by their own unit tests only: still to delete, each with those
	// tests. PR 21 took the deletions that cost the fewest tests per line.
	"Bars":               "report: 2 tests",
	"Halt":               "sim.Kernel, with Pending and RunUntil: 2 tests",
	"RunUntil":           "sim.Kernel",
	"NewBoundedPareto":   "dist, with NewEmpirical, NewExponential, NewUniform, NewWeibull and Sampler: 6 tests",
	"NewEmpirical":       "dist",
	"NewExponential":     "dist",
	"NewUniform":         "dist",
	"NewWeibull":         "dist",
	"Sampler":            "dist",
	"NewECDF":            "stats.ECDF, with Points: 2 tests",
	"Points":             "stats.ECDF",
	"NewLinearHistogram": "stats: 2 tests",
	"ParseTier":          "trace, with ParseAppFamily: 1 test",
	"ParseAppFamily":     "trace",
}

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Pos{} // exported name under internal/ -> a declaration
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

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdent[id] {
				used[id.Name] = true
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
}

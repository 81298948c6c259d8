// An exported identifier under internal/ that only _test.go files mention is
// a shipped oracle or a leftover: it costs a reader the same as live code and
// no program runs it. An exported struct field that no shipped file ever sets
// is the same thing for options: a knob with one value. This test lists both
// and fails on any that testOnlyExports or neverSetFields does not excuse, so
// one is either deleted with its unit test, moved into test code, made a
// constant, or kept for a stated reason. Exports, methods and fields are
// matched by the object they declare, so a same-named identifier used
// elsewhere (another package's function, another type's method) hides none
// of them. A method reached through an interface is never named at its call
// site, so a method also counts as used when its type implements an
// interface that declares it and that either lives outside the module or has
// that method called by a non-test file.
package filecule_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports are the exports no non-test file uses, and why each stays:
// a top-level one keyed by its name, a method by package.Type.Method.
var testOnlyExports = map[string]string{
	// Fixtures and oracles that tests of other code are built on.
	"GenerateXRootD":   "synth: the golden and shape tests materialise the workload through it",
	"KSTest":           "stats: synth's TestGeneratorDistributionStability compares size distributions with it",
	"SitesPerFilecule": "core: synth's hot-filecule test reads the site count, and TestArrivalGapsCoverMultiSiteFilecules counts multi-site filecules",
	"Wrap":             "fed/faultnet: the chaos tests inject faults through it",

	"core.Engine.ObserveSource":     "TestMonitorObserveSource and the codec differentials drain every trace.Source through it",
	"core.Engine.ObserveTrace":      "how tests load a trace: TestDifferentialIdentification, TestJobCacheFollowsLiveSet, fed's TestDeltaDecodeRejectsFlips",
	"core.Partition.Equal":          "the oracle comparison of every differential: FuzzEnginePrefix, TestObserveSourceAcrossCodecs, TestKillAndRecover",
	"fed.Node.ExchangeAll":          "TestBreakerLifecycle, TestIncarnationResync and the chaos tests step gossip rounds by hand",
	"grid.Network.InFlight":         "TestNetworkZeroByteFlow and TestNetworkIndependentSourcesDontShare read the flow table",
	"prefetch.WorkingSet.NumStored": "TestWorkingSetMaxStored and TestWorkingSetOnlineLearning read the sequence store",
	"prefetch.WorkingSet.Train":     "TestWorkingSetDefersUntilUnique loads the history Suggest matches against",
	"server.Server.Engine":          "the server tests and BenchmarkServerAdvise, BenchmarkServerPartitionQuery and benchTCPServer warm and read the engine",
	"stats.Histogram.Total":         "TestLogHistogram and TestHistogramMassConservationProperty sum the bins",
	"trace.Builder.SimpleJob":       "the small-trace fixture of a dozen test files: TestAllExperimentsRunOnOneJob, smallTrace, replTrace",
	"trace.ChunkError.Torn":         "TestChunkTornVsCorrupt classifies errors with it",
	"wire.Client.RecvObserve":       "with SendObserve, the protocol's pipelining primitive: TestClientServerOverTCP and the gated BenchmarkServeTCPWire drive a depth-64 window through it",
	"wire.Client.SendObserve":       "see wire.Client.RecvObserve",

	// Called through an interface the standard library declares inline,
	// which the audit cannot see.
	"durable.noWalHeader.Is":       "errors.Is: replayChain recognises an unreadable header by it (FuzzWAL, TestDurableExitCodes)",
	"durable.noWalHeader.Unwrap":   "errors.As: replayChain finds a read fault under a header by it (TestNewestSegmentBadBaseFailsClosed/cannot_be_read)",
	"server.statusRecorder.Unwrap": "http.ResponseController arms the body read deadline through it (TestSlowlorisBodyCutOff)",
	"trace.ChunkError.Unwrap":      "errors.Is / errors.As reach a frame's cause through it (TestChunkTornVsCorrupt)",

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
// the address, outside a package's own withDefaults — keyed package.Type.Field,
// and why each stays exported.
var neverSetFields = map[string]string{
	// fed/faultnet is the fault-injection harness of the federation chaos
	// tests (see Wrap above): only they write a Plan.
	"faultnet.Plan.Drop":        "the chaos matrix sets the fault probabilities",
	"faultnet.Plan.Corrupt":     "the chaos matrix",
	"faultnet.Plan.Duplicate":   "the chaos matrix",
	"faultnet.Plan.Delay":       "the chaos matrix, with DelayMax",
	"faultnet.Plan.DelayMax":    "the chaos matrix",
	"faultnet.Plan.HealAfter":   "the eventual connectivity the convergence differential needs",
	"faultnet.Plan.Partitioned": "the partition-and-heal tests script it",
	"faultnet.Plan.Seed":        "the chaos tests pin the fault sequence they replay",

	// Only fed's withDefaults writes these.
	"fed.Config.BreakerFailures": "the breaker tests open a breaker after 3 failures",
	"fed.Config.BreakerCooldown": "the breaker and chaos tests cool down in 50 ms or less",
	"fed.Config.Incarnation":     "the fed, server and chaos tests pin it to restart a site as a known new life",
	"fed.Config.Seed":            "the fed and server tests pin the exchange jitter",
}

// modulePath is this module's import path (go.mod).
const modulePath = "filecule"

// typeCheck type-checks every non-test package of the module from the files
// parsed in it, keyed by directory, and returns them; the standard library
// comes from the default importer's export data.
func typeCheck(fset *token.FileSet, pkgFiles map[string][]*ast.File) (*types.Info, []*types.Package, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
			return std.Import(p)
		}
		if pkg := checked[p]; pkg != nil {
			return pkg, nil
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
		if dir == "" {
			dir = "."
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p, fset, pkgFiles[dir], info)
		if err != nil {
			return nil, err
		}
		checked[p] = pkg
		return pkg, nil
	}
	var pkgs []*types.Package
	for dir := range pkgFiles {
		pkg, err := imp(path.Join(modulePath, filepath.ToSlash(dir)))
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return info, pkgs, nil
}

// reachable returns, by method name, the interfaces through which a call
// may reach a method that is never named: every interface the module's
// packages can see from outside it (the standard library calls their
// methods, and error is the universe's), and the module's own interfaces
// counted only for the methods a non-test file calls.
func reachable(pkgs []*types.Package, called map[types.Object]bool) map[string][]*types.Interface {
	reach := map[string][]*types.Interface{}
	add := func(iface *types.Interface, outside bool) {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); outside || called[m] {
				reach[m.Name()] = append(reach[m.Name()], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true)
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		outside := pkg.Path() != modulePath && !strings.HasPrefix(pkg.Path(), modulePath+"/")
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(iface, outside)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	return reach
}

// implements reports whether a value of named (or a pointer to one)
// satisfies one of ifaces.
func implements(named types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var declared []*ast.Ident             // exported top-level names under internal/
	var methods []*ast.Ident              // exported methods under internal/, interfaces' included
	fieldNames := map[*ast.Ident]string{} // exported struct field under internal/ -> package.Type.Field
	declIdent := map[*ast.Ident]bool{}
	pkgFiles := map[string][]*ast.File{} // directory -> its package's files
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build: no source of ours
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		pkgFiles[filepath.Dir(path)] = append(pkgFiles[filepath.Dir(path)], f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		declare := func(id *ast.Ident) {
			declIdent[id] = true
			if id.IsExported() {
				declared = append(declared, id)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
					break
				}
				declIdent[d.Name] = true
				if d.Name.IsExported() {
					methods = append(methods, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
						switch t := s.Type.(type) {
						case *ast.StructType:
							for _, fl := range t.Fields.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										fieldNames[id] = f.Name.Name + "." + s.Name.Name + "." + id.Name
									}
								}
							}
						case *ast.InterfaceType:
							for _, fl := range t.Methods.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										methods = append(methods, id)
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
	info, pkgs, err := typeCheck(fset, pkgFiles)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[types.Object]string{}
	for id, name := range fieldNames {
		fields[info.Defs[id]] = name
	}

	used, set := map[types.Object]bool{}, map[types.Object]bool{}
	use := func(id *ast.Ident) {
		if declIdent[id] {
			return
		}
		obj := info.Uses[id]
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a generic function's instance
		}
		used[obj] = true
	}
	setField := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			set[v.Origin()] = true
		}
	}
	setSel := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			setField(sel.Sel)
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
						if id, ok := n.(*ast.Ident); ok {
							use(id)
						}
						return true
					})
					return false
				}
			case *ast.Ident:
				use(n)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					setField(id)
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

	testOnly := map[string]token.Pos{}
	for _, id := range declared {
		if !used[info.Defs[id]] {
			testOnly[id.Name] = id.Pos()
		}
	}
	reach := reachable(pkgs, used)
	for _, id := range methods {
		fn := info.Defs[id].(*types.Func)
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named := recv.(*types.Named).Origin()
		if !used[fn] && !implements(named, reach[id.Name]) {
			testOnly[fn.Pkg().Name()+"."+named.Obj().Name()+"."+id.Name] = id.Pos()
		}
	}
	for name, pos := range testOnly {
		if _, excused := testOnlyExports[name]; !excused {
			t.Errorf("%s: %s is exported but only tests use it: delete it, unexport it, or add it to testOnlyExports with the reason",
				fset.Position(pos), name)
		}
	}
	for name := range testOnlyExports {
		if _, ok := testOnly[name]; !ok {
			t.Errorf("testOnlyExports lists %s, which is no longer a test-only export", name)
		}
	}

	listed := map[string]bool{}
	for v, name := range fields {
		_, excused := neverSetFields[name]
		listed[name] = listed[name] || !set[v]
		if !set[v] && !excused {
			t.Errorf("%s: no non-test file sets exported field %s: make it a constant, unexport it, or add it to neverSetFields with the reason",
				fset.Position(v.Pos()), name)
		}
	}
	for name := range neverSetFields {
		if !listed[name] {
			t.Errorf("neverSetFields lists %s, which is no longer a never-set field", name)
		}
	}
}

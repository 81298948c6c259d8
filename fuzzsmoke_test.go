// `make fuzz-smoke` is the only place CI fuzzes beyond the checked-in seeds,
// and it is a hand-written list (Go allows one -fuzz pattern per package
// invocation). This test keeps the list and the tree's fuzz targets equal.
package filecule_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	var listed []string
	runRE := regexp.MustCompile(`-fuzz=(Fuzz\w+)\s.*\s\./(\S+)$`)
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break // end of the recipe
		}
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("fuzz-smoke line not understood: %q", line)
		}
		listed = append(listed, m[2]+":"+m[1])
	}

	var declared []string
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build: no source of ours
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			declared = append(declared, filepath.ToSlash(filepath.Dir(path))+":"+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, target := range declared {
		if !slices.Contains(listed, target) {
			t.Errorf("%s is never fuzzed: add it to the Makefile's fuzz-smoke target", target)
		}
	}
	for _, target := range listed {
		if !slices.Contains(declared, target) {
			t.Errorf("fuzz-smoke lists %s, which the tree does not declare", target)
		}
	}
}

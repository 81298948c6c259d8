// examples/quickstart is README's first command, so README shows what it
// prints. The package walkthroughs are Example functions in their packages'
// tests, where go test checks their output.
package filecule_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// readmeBlock returns the body of the first ```text block after heading in
// README.md.
func readmeBlock(t *testing.T, heading string) string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n"+heading+"\n")
	if ok {
		_, section, ok = strings.Cut(section, "\n```text\n")
	}
	block, _, closed := strings.Cut(section, "\n```\n")
	if !ok || !closed {
		t.Fatalf("README.md has no ```text block under %q", heading)
	}
	return block + "\n"
}

// TestExamplesBuildAndRun runs examples/quickstart and holds its output to
// the block README shows under "## Quickstart", byte for byte.
func TestExamplesBuildAndRun(t *testing.T) {
	t.Run("quickstart", func(t *testing.T) {
		want := readmeBlock(t, "## Quickstart")
		out, err := exec.Command("go", "run", "./examples/quickstart").Output()
		if err != nil {
			t.Fatalf("go run ./examples/quickstart: %v", err)
		}
		if string(out) != want {
			t.Errorf("README's quickstart output is stale; go run ./examples/quickstart prints:\n%s\nREADME shows:\n%s", out, want)
		}
	})
}

//go:build slow

package filecule_test

import "testing"

// TestExperimentsRenderSlow reruns the rendered blocks of EXPERIMENTS.md at
// workloads above scale 0.05 (Figure 10 at the paper's scale over five
// seeds), which TestExperimentsRender leaves out: `make doc-slow`.
func TestExperimentsRenderSlow(t *testing.T) {
	checkExperiments(t, true)
}

// Package experiments contains one driver per table and figure of the
// paper. Each driver runs the corresponding analysis or simulation over the
// runner's workload, and emits the same rows or series the paper reports,
// side by side with the paper's published values where they exist.
//
// The drivers are used by cmd/filecule-repro (the full report), by the
// per-experiment benchmarks in the repository root, and by EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/trace"
)

// Result is one experiment's rendered outcome.
type Result struct {
	ID          string
	Description string
	Tables      []*report.Table
	// Text holds pre-rendered non-tabular sections (timelines, bars).
	Text []string
	// Notes carry paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

// Render writes the full result to a string.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Description)
	for _, t := range r.Tables {
		t.Render(&b)
		b.WriteString("\n")
	}
	for _, s := range r.Text {
		b.WriteString(s)
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Aggregate folds one experiment's results at several seeds into one:
// each table through report.Aggregate, the text as it is when every seed
// agrees, and the notes, which no driver words by the seed. A table or text
// that does not fold is the first seed's, marked so.
func Aggregate(runs []*Result) *Result {
	out := *runs[0]
	out.Tables = make([]*report.Table, len(runs[0].Tables))
	for i, tb := range runs[0].Tables {
		group := make([]*report.Table, 0, len(runs))
		for _, r := range runs {
			if len(r.Tables) == len(runs[0].Tables) {
				group = append(group, r.Tables[i])
			}
		}
		agg, err := report.Aggregate(group)
		if err == nil && len(group) < len(runs) {
			err = fmt.Errorf("table counts differ")
		}
		if err != nil {
			first := *tb
			first.Title = fmt.Sprintf("%s [first seed only: %v]", tb.Title, err)
			agg = &first
		}
		out.Tables[i] = agg
	}
	for _, r := range runs[1:] {
		if !slices.Equal(r.Text, out.Text) {
			out.Text = append([]string{"[first seed only: the text below differs across seeds]"}, out.Text...)
			break
		}
	}
	return &out
}

// Runner owns the shared workload and caches derived state across
// experiments.
type Runner struct {
	scale float64
	tr    *trace.Trace
	part  *core.Partition
	reqs  []trace.Request
	sweep []CacheSweepPoint // Figure 10, memoised by CacheSweep
}

// NewForTrace creates a Runner over a workload. The scale sizes the caches
// and budgets relative to the paper's (the Figure 10 sweep's 1-100 TB
// range); pass 1 if the trace is full size.
func NewForTrace(t *trace.Trace, scale float64) *Runner {
	return &Runner{scale: scale, tr: t}
}

// Trace returns the shared workload.
func (r *Runner) Trace() *trace.Trace { return r.tr }

// Partition returns the globally identified filecule partition.
func (r *Runner) Partition() *core.Partition {
	if r.part == nil {
		r.part = core.Identify(r.Trace())
	}
	return r.part
}

// Requests returns the time-ordered request stream.
func (r *Runner) Requests() []trace.Request {
	if r.reqs == nil {
		r.reqs = r.Trace().Requests()
	}
	return r.reqs
}

type driver struct {
	id          string
	description string
	run         func(*Runner) (*Result, error)
}

var registry = []driver{
	{"table1", "per-tier trace characteristics (Table 1)", (*Runner).table1},
	{"table2", "per-domain characteristics with filecule counts (Table 2)", (*Runner).table2},
	{"fig1", "number of input files per job (Figure 1)", (*Runner).fig1},
	{"fig2", "jobs and file requests per day (Figure 2)", (*Runner).fig2},
	{"fig3", "file size distribution (Figure 3)", (*Runner).fig3},
	{"fig4", "number of users sharing a filecule (Figure 4)", (*Runner).fig4},
	{"fig5", "number of filecules per job (Figure 5)", (*Runner).fig5},
	{"fig6", "size of filecules per data tier (Figure 6)", (*Runner).fig6},
	{"fig7", "number of files per filecule per data tier (Figure 7)", (*Runner).fig7},
	{"fig8", "filecule popularity distribution per data tier (Figure 8)", (*Runner).fig8},
	{"fig9", "number of requests per filecule (Figure 9)", (*Runner).fig9},
	{"fig10", "LRU miss rate, file vs filecule granularity (Figure 10)", (*Runner).fig10},
	{"fig11", "filecule access intervals per site (Figure 11)", (*Runner).fig11},
	{"fig12", "filecule access intervals per user (Figure 12)", (*Runner).fig12},
	{"swarm", "BitTorrent feasibility at observed concurrency (Section 5)", (*Runner).swarmFeasibility},
	{"partial", "partial-knowledge filecule identification (Section 6)", (*Runner).partialKnowledge},
	{"replication", "proactive replication: files vs filecules (Section 6)", (*Runner).replication},
	{"ablation", "cache policy zoo at both granularities (design ablation)", (*Runner).ablation},
	{"dynamics", "filecule stability across time windows (Section 8 future work)", (*Runner).dynamics},
	{"prefetchers", "Related Work prefetching baselines vs filecule LRU (Section 7)", (*Runner).prefetchers},
	{"filebundle", "Otoo file-bundle caching vs filecule LRU (deferred comparison)", (*Runner).fileBundle},
	{"replsweep", "replication budget sweep, files vs filecules (Section 6)", (*Runner).replSweep},
	{"chunkswarm", "chunk-level BitTorrent cross-check (Section 5)", (*Runner).chunkSwarm},
	{"placement", "replica placement on the peer-assisted grid (Section 6)", (*Runner).placement},
}

// groups are the named experiment lists Expand accepts beside single IDs,
// one per section of the paper that is a report of its own.
var groups = []struct {
	name string
	ids  []string
}{
	// Section 3, the workload characterization.
	{"sec3", []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "dynamics"}},
	// Section 5, the BitTorrent feasibility study: the hottest filecule's
	// per-site and per-user access intervals and the swarm simulation.
	{"sec5", []string{"fig11", "fig12", "swarm"}},
}

// Groups lists the group names.
func Groups() []string {
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = g.name
	}
	return names
}

// Expand turns a comma-separated list of experiment IDs and group names into
// the IDs to run, in the order given; an unknown name is an error.
func Expand(list string) ([]string, error) {
	var ids []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		members := []string{name}
		for _, g := range groups {
			if g.name == name {
				members = g.ids
			}
		}
		if _, ok := Describe(members[0]); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s; groups: %s)",
				name, strings.Join(All(), ", "), strings.Join(Groups(), ", "))
		}
		ids = append(ids, members...)
	}
	return ids, nil
}

// All lists the experiment IDs in report order.
func All() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.id
	}
	return ids
}

// Describe returns an experiment's one-line description.
func Describe(id string) (string, bool) {
	for _, d := range registry {
		if d.id == id {
			return d.description, true
		}
	}
	return "", false
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Result, error) {
	for _, d := range registry {
		if d.id == id {
			res, err := d.run(r)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
			res.ID = d.id
			res.Description = d.description
			return res, nil
		}
	}
	known := strings.Join(All(), ", ")
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, known)
}

// RunAll executes the experiments ids names in order, or every experiment
// in report order when it names none.
func (r *Runner) RunAll(ids ...string) ([]*Result, error) {
	if len(ids) == 0 {
		ids = All()
	}
	out := make([]*Result, 0, len(ids))
	for _, id := range ids {
		res, err := r.Run(id)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// quantileRow formats a distribution into min/quartile cells.
func quantileRow(xs []float64) (min, p25, p50, p75, p90, max float64) {
	if len(xs) == 0 {
		return
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return sorted[0], q(0.25), q(0.5), q(0.75), q(0.9), sorted[len(sorted)-1]
}

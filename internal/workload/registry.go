// Package workload is the adapter registry every filecule tool constructs
// its job stream through: named, self-describing source factories (dzero,
// file, kv-csv, xrootd, ...) each taking a typed option set parsed from the
// uniform spec grammar
//
//	name[,key=value]...
//
// e.g. "dzero,seed=1,scale=0.05" or "kv-csv,path=trace.csv,window=64".
// Option keys are validated against the adapter's declared option set, so a
// typo is a descriptive error rather than a silently ignored knob. The
// grammar has no escape character: a value cannot contain a comma. Adapters
// register themselves at init; no cmd or server code path constructs a
// trace.Source except through this package (DESIGN.md §14).
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"filecule/internal/trace"
)

// Option declares one adapter knob: its spec key, the default shown in help
// (informational — adapters apply defaults themselves), and a one-line help
// string.
type Option struct {
	Key     string
	Default string
	Help    string
}

// Adapter is one registered workload family.
type Adapter struct {
	// Name is the spec's leading token.
	Name string
	// Summary is the one-line description shown in flag help.
	Summary string
	// Options are the accepted keys; a spec naming any other key is
	// rejected.
	Options []Option
	// Open returns a streaming Source. Stream order is adapter-defined
	// (dzero streams in generation order, like synth.NewSource always
	// has).
	Open func(opts map[string]string) (trace.Source, error)
	// Load materializes the whole workload. When nil, the registry
	// materializes Open's stream and sorts by start time.
	Load func(opts map[string]string) (*trace.Trace, error)
	// OpenOrdered returns a Source whose jobs stream in nondecreasing
	// start order (the contract the sweep engine's baseline depends on).
	// When nil, the registry falls back to Open for adapters whose
	// streams are already ordered, per OrderedStream.
	OpenOrdered func(opts map[string]string) (trace.Source, error)
	// OrderedStream declares that Open's stream is already in
	// nondecreasing start order, so OpenOrdered may fall back to it.
	OrderedStream bool
}

// DefaultSpec is the workload every tool replays when -workload is not
// given: the paper's workload at 1/20 scale, seconds per experiment.
const DefaultSpec = "dzero,seed=1,scale=0.05"

var registry = map[string]*Adapter{}

// Register adds an adapter; duplicate names are programmer error.
func Register(a Adapter) {
	if a.Name == "" || a.Open == nil {
		panic("workload: adapter needs a name and an Open function")
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate adapter %q", a.Name))
	}
	registry[a.Name] = &a
}

// Lookup returns the named adapter.
func Lookup(name string) (*Adapter, error) {
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown adapter %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return a, nil
}

// Names lists registered adapter names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Adapters returns the registered adapters in name order.
func Adapters() []*Adapter {
	out := make([]*Adapter, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// SpecHelp renders the spec grammar and every adapter's options — the
// shared -workload flag help.
func SpecHelp() string {
	var b strings.Builder
	b.WriteString("workload spec: name[,key=value]...\n")
	for _, a := range Adapters() {
		fmt.Fprintf(&b, "  %-8s %s\n", a.Name, a.Summary)
		for _, o := range a.Options {
			def := ""
			if o.Default != "" {
				def = " (default " + o.Default + ")"
			}
			fmt.Fprintf(&b, "           %s=%s%s\n", o.Key, o.Help, def)
		}
	}
	return b.String()
}

// ParseSpec splits a "name,key=val,..." spec into its adapter name and
// option map, validating keys against the adapter's declared options. The
// specs "help" and "list" name no adapter: their error is the SpecHelp text.
func ParseSpec(spec string) (*Adapter, map[string]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil, fmt.Errorf("workload: empty spec (want name[,key=value]...)")
	}
	parts := strings.Split(spec, ",")
	name := strings.TrimSpace(parts[0])
	if name == "help" || name == "list" {
		return nil, nil, errors.New(SpecHelp())
	}
	a, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	opts := make(map[string]string, len(parts)-1)
	for _, p := range parts[1:] {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		// The tail of a value with a comma in it (a path, usually) arrives
		// here as a token of its own, so both complaints about a token say
		// what the grammar lacks.
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return nil, nil, fmt.Errorf("workload: %s: option %q is not key=value (spec values cannot contain commas)", name, p)
		}
		k = strings.TrimSpace(k)
		if !a.hasOption(k) {
			return nil, nil, fmt.Errorf("workload: %s: unknown option %q (have %s; spec values cannot contain commas)", name, k, strings.Join(a.optionKeys(), ", "))
		}
		if _, dup := opts[k]; dup {
			return nil, nil, fmt.Errorf("workload: %s: option %q given twice", name, k)
		}
		opts[k] = v
	}
	return a, opts, nil
}

// Scale returns the scale option of spec, 1 when it has none: what a
// consumer that sizes other quantities by the workload (cache capacities,
// replication budgets) multiplies them by.
func Scale(spec string) (float64, error) {
	_, opts, err := ParseSpec(spec)
	if err != nil {
		return 0, err
	}
	scale, err := optFloat(opts, "scale", 1)
	if err == nil && (!(scale > 0) || math.IsInf(scale, 1)) {
		err = fmt.Errorf("workload: option scale=%q is not positive and finite", opts["scale"])
	}
	return scale, err
}

// SeedSpecs returns spec at n consecutive seeds from its own (the adapter's
// default when it names none), the seed key rewritten in place and every
// other token as given. An adapter with no seed option is an error.
func SeedSpecs(spec string, n int) ([]string, error) {
	a, opts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	def := ""
	for _, o := range a.Options {
		if o.Key == "seed" {
			def = o.Default
		}
	}
	if def == "" {
		return nil, fmt.Errorf("workload: %s has no seed option to vary", a.Name)
	}
	seed, err := strconv.ParseInt(def, 10, 64)
	if err == nil {
		seed, err = optInt64(opts, "seed", seed)
	}
	if err != nil {
		return nil, err
	}
	parts := strings.Split(spec, ",")
	at := len(parts)
	for i, p := range parts {
		if k, _, _ := strings.Cut(p, "="); i > 0 && strings.TrimSpace(k) == "seed" {
			at = i
		}
	}
	if at == len(parts) {
		parts = append(parts, "")
	}
	specs := make([]string, n)
	for i := range specs {
		parts[at] = fmt.Sprintf("seed=%d", seed+int64(i))
		specs[i] = strings.Join(parts, ",")
	}
	return specs, nil
}

func (a *Adapter) hasOption(key string) bool {
	for _, o := range a.Options {
		if o.Key == key {
			return true
		}
	}
	return false
}

func (a *Adapter) optionKeys() []string {
	out := make([]string, len(a.Options))
	for i, o := range a.Options {
		out[i] = o.Key
	}
	return out
}

// Open parses spec and opens its streaming source.
func Open(spec string) (trace.Source, error) {
	a, opts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return a.Open(opts)
}

// Load parses spec and materializes the whole workload. Generated workloads
// come start-sorted; a recorded trace (the file adapter) keeps its stored
// order.
func Load(spec string) (*trace.Trace, error) {
	a, opts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return a.load(opts)
}

// OpenOrdered parses spec and opens a source whose jobs stream in
// nondecreasing start order — what the sweep engine replays.
func OpenOrdered(spec string) (trace.Source, error) {
	a, opts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return a.openOrdered(opts)
}

func (a *Adapter) load(opts map[string]string) (*trace.Trace, error) {
	if a.Load != nil {
		return a.Load(opts)
	}
	return loadSorted(a.Open, opts)
}

// loadSorted is the default Load: materialize open's stream, sort by start.
func loadSorted(open func(map[string]string) (trace.Source, error), opts map[string]string) (*trace.Trace, error) {
	src, err := open(opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	t, err := trace.Materialize(src)
	if err != nil {
		return nil, err
	}
	t.SortJobsByStart()
	return t, nil
}

func (a *Adapter) openOrdered(opts map[string]string) (trace.Source, error) {
	if a.OpenOrdered != nil {
		return a.OpenOrdered(opts)
	}
	if a.OrderedStream {
		return a.Open(opts)
	}
	t, err := a.load(opts)
	if err != nil {
		return nil, err
	}
	return trace.NewTraceSource(t), nil
}

// --- typed option parsing helpers, shared by adapters ---

func optString(opts map[string]string, key, def string) string {
	if v, ok := opts[key]; ok {
		return v
	}
	return def
}

func optInt64(opts map[string]string, key string, def int64) (int64, error) {
	v, ok := opts[key]
	if !ok || v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: option %s=%q is not an integer", key, v)
	}
	return n, nil
}

func optInt(opts map[string]string, key string, def int) (int, error) {
	n, err := optInt64(opts, key, int64(def))
	return int(n), err
}

func optFloat(opts map[string]string, key string, def float64) (float64, error) {
	v, ok := opts[key]
	if !ok || v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("workload: option %s=%q is not a number", key, v)
	}
	return f, nil
}

func optDuration(opts map[string]string, key string, def time.Duration) (time.Duration, error) {
	v, ok := opts[key]
	if !ok || v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("workload: option %s=%q is not a duration (try 30s, 2m)", key, v)
	}
	return d, nil
}

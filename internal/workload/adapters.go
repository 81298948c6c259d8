package workload

import (
	"fmt"
	"time"

	"filecule/internal/synth"
	"filecule/internal/trace"
)

// Built-in adapters. Each registers at init so the registry is complete
// before any flag parsing happens.

// CheckFormat validates a trace codec name, as filecule-gen's -format takes
// it.
func CheckFormat(format string) error {
	if format == "text" || format == "bin" {
		return nil
	}
	return fmt.Errorf("unknown format %q (have [text bin])", format)
}

// shapeOptions are the RPS-shaping knobs shared by the synthetic adapters.
var shapeOptions = []Option{
	{Key: "shape", Default: "none", Help: "<none|ramp|sweep|burst> RPS profile re-timing arrivals"},
	{Key: "rps-start", Default: "10", Help: "<rps> first-slot (and burst-baseline) arrival rate"},
	{Key: "rps-target", Default: "100", Help: "<rps> rate ramped toward / bounced against / burst to"},
	{Key: "rps-step", Default: "10", Help: "<rps> per-slot rate change (ramp, sweep)"},
	{Key: "slot", Default: "1m", Help: "<duration> width of each rate slot"},
}

// ShapeFromOpts parses the shared shaping options into a synth.Shape.
// Absent options mean ShapeNone.
func ShapeFromOpts(opts map[string]string) (synth.Shape, error) {
	mode, err := synth.ParseShapeMode(optString(opts, "shape", ""))
	if err != nil {
		return synth.Shape{}, err
	}
	if mode == synth.ShapeNone {
		return synth.Shape{}, nil
	}
	sh := synth.Shape{Mode: mode}
	if sh.StartRPS, err = optFloat(opts, "rps-start", 10); err != nil {
		return synth.Shape{}, err
	}
	if sh.TargetRPS, err = optFloat(opts, "rps-target", 100); err != nil {
		return synth.Shape{}, err
	}
	if sh.StepRPS, err = optFloat(opts, "rps-step", 10); err != nil {
		return synth.Shape{}, err
	}
	if sh.Slot, err = optDuration(opts, "slot", time.Minute); err != nil {
		return synth.Shape{}, err
	}
	return sh, sh.Validate()
}

func init() {
	Register(Adapter{
		Name:    "dzero",
		Summary: "calibrated DZero synthetic (the paper's workload)",
		Options: append([]Option{
			{Key: "seed", Default: "1", Help: "<int> generator seed"},
			{Key: "scale", Default: "1", Help: "<float> workload scale (1 = paper size)"},
			{Key: "user-scale", Default: "sqrt(scale)", Help: "<float> user-population scale"},
		}, shapeOptions...),
		Open:        openDZero,
		Load:        loadDZero,
		OpenOrdered: openOrderedDZero,
	})

	Register(Adapter{
		Name:    "file",
		Summary: "replay a recorded trace file (v1 text, filecule-bin/v1, or gzip of either)",
		Options: []Option{
			{Key: "path", Help: "<file> trace to replay (required)"},
			{Key: "scale", Default: "1", Help: "<float> the scale the trace was recorded at: Scale reports it, the replay ignores it"},
		},
		Open: openFile,
		Load: loadFile,
		// Files replay in stored order, like they always have.
		OrderedStream: true,
	})

	Register(Adapter{
		Name:    "kv-csv",
		Summary: "Meta KV-cache CSV trace (op/key/key_size/size columns; keys→files, request windows→jobs)",
		Options: []Option{
			{Key: "path", Help: "<file> kvcache CSV, .gz accepted (required)"},
			{Key: "window", Default: "64", Help: "<int> GET/SET requests per synthesized job"},
		},
		Open:          openKVAdapter,
		OrderedStream: true,
	})

	Register(Adapter{
		Name:    "xrootd",
		Summary: "XRootD-style scientific-cache synthetic (Bellavita et al.: one-touch heavy, age-decayed reuse)",
		Options: append([]Option{
			{Key: "seed", Default: "1", Help: "<int> generator seed"},
			{Key: "scale", Default: "1", Help: "<float> workload scale"},
			{Key: "days", Default: "180", Help: "<int> trace span in days"},
			{Key: "one-touch", Default: "0.35", Help: "<frac> probability a request draws from the cold pool"},
			{Key: "decay-days", Default: "7", Help: "<days> mean age of re-read files"},
			{Key: "group-prob", Default: "0.3", Help: "<frac> probability a job reads a contiguous birth group"},
			{Key: "group-size", Default: "8", Help: "<float> mean birth-group length"},
			{Key: "mean-files", Default: "2.6", Help: "<float> mean input files per job"},
		}, shapeOptions...),
		Open:          openXRootD,
		OrderedStream: true,
	})
}

// --- dzero ---

func dzeroConfig(opts map[string]string) (synth.Config, synth.Shape, error) {
	seed, err := optInt64(opts, "seed", 1)
	if err != nil {
		return synth.Config{}, synth.Shape{}, err
	}
	scale, err := optFloat(opts, "scale", 1)
	if err != nil {
		return synth.Config{}, synth.Shape{}, err
	}
	us, err := optFloat(opts, "user-scale", 0)
	if err != nil {
		return synth.Config{}, synth.Shape{}, err
	}
	// UserScale 0 stands for sqrt(scale): a given zero is refused, not
	// taken for the default.
	if opts["user-scale"] != "" && !(us > 0) {
		return synth.Config{}, synth.Shape{}, fmt.Errorf("workload: dzero user-scale=%v must be > 0 (omit it for sqrt(scale))", us)
	}
	cfg := synth.DZero(seed, scale)
	cfg.UserScale = us
	sh, err := ShapeFromOpts(opts)
	if err != nil {
		return synth.Config{}, synth.Shape{}, err
	}
	return cfg, sh, nil
}

func openDZero(opts map[string]string) (trace.Source, error) {
	cfg, sh, err := dzeroConfig(opts)
	if err != nil {
		return nil, err
	}
	if sh.Mode == synth.ShapeNone {
		return synth.NewSource(cfg)
	}
	// Shaping re-times the workload's time-ordered request sequence, not
	// the generator's emission order: materialize start-sorted first, so a
	// shaped replay differs from the unshaped one only in arrival times
	// (cache miss rates are invariant under shaping — the sequence is the
	// same).
	t, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return synth.Reshape(trace.NewTraceSource(t), sh, cfg.Start)
}

// loadDZero is synth.Generate for the unshaped workload: what the sweep
// baseline and every experiment are pinned to, and the fastest way to the
// start-sorted trace. A shaped one takes the registry's default.
func loadDZero(opts map[string]string) (*trace.Trace, error) {
	cfg, sh, err := dzeroConfig(opts)
	if err != nil {
		return nil, err
	}
	if sh.Mode != synth.ShapeNone {
		return loadSorted(openDZero, opts)
	}
	return synth.Generate(cfg)
}

// openOrderedDZero serves the sweep engine: unshaped streams must replay in
// start-time order (materialize via Generate, exactly the pre-registry
// cachesim behavior, pinning baseline miss rates); shaped streams are
// ordered by construction.
func openOrderedDZero(opts map[string]string) (trace.Source, error) {
	_, sh, err := dzeroConfig(opts)
	if err != nil {
		return nil, err
	}
	if sh.Mode != synth.ShapeNone {
		return openDZero(opts)
	}
	t, err := loadDZero(opts)
	if err != nil {
		return nil, err
	}
	return trace.NewTraceSource(t), nil
}

// --- file ---

func filePath(opts map[string]string) (string, error) {
	path := optString(opts, "path", "")
	if path == "" {
		return "", fmt.Errorf("workload: file: the path option is required (file,path=<trace>)")
	}
	return path, nil
}

func openFile(opts map[string]string) (trace.Source, error) {
	path, err := filePath(opts)
	if err != nil {
		return nil, err
	}
	return trace.Open(path)
}

func loadFile(opts map[string]string) (*trace.Trace, error) {
	path, err := filePath(opts)
	if err != nil {
		return nil, err
	}
	return trace.ReadFile(path)
}

// --- kv-csv ---

func openKVAdapter(opts map[string]string) (trace.Source, error) {
	path := optString(opts, "path", "")
	if path == "" {
		return nil, fmt.Errorf("workload: kv-csv: the path option is required (kv-csv,path=<csv>)")
	}
	window, err := optInt(opts, "window", 64)
	if err != nil {
		return nil, err
	}
	return OpenKVCSV(path, window)
}

// --- xrootd ---

func openXRootD(opts map[string]string) (trace.Source, error) {
	seed, err := optInt64(opts, "seed", 1)
	if err != nil {
		return nil, err
	}
	scale, err := optFloat(opts, "scale", 1)
	if err != nil {
		return nil, err
	}
	// Each given key overrides its default, zero included.
	cfg := synth.XRootDDefaults(seed, scale)
	if cfg.Days, err = optInt(opts, "days", cfg.Days); err != nil {
		return nil, err
	}
	for _, o := range []struct {
		key string
		v   *float64
	}{
		{"one-touch", &cfg.OneTouchFrac},
		{"decay-days", &cfg.DecayDays},
		{"group-prob", &cfg.GroupProb},
		{"group-size", &cfg.GroupSize},
		{"mean-files", &cfg.MeanFilesPerJob},
	} {
		if *o.v, err = optFloat(opts, o.key, *o.v); err != nil {
			return nil, err
		}
	}
	sh, err := ShapeFromOpts(opts)
	if err != nil {
		return nil, err
	}
	src, err := synth.NewXRootDSource(cfg)
	if err != nil {
		return nil, err
	}
	return synth.Reshape(src, sh, synth.XRootDEpoch)
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/server"
	"filecule/internal/sim"
	"filecule/internal/trace"
	"filecule/internal/wire"
	"filecule/internal/workload"
)

// The probes whose cost grows with requests x cells, or that pay one HTTP
// round trip per job, run on a prefix of the run's trace so a traced run of
// the larger workloads stays inside the benchmark's time cap. sweep-paper's
// own input is below the first cap, so its sim.* figures are over the trace
// its passes replay.
const (
	simProbeJobs  = 12000
	httpProbeJobs = 8000
)

// tracedReport turns a traced run into the per-layer metrics: the harness's
// own gauges from the traced passes, then direct probes of each layer on the
// same input, bypassing the layers above it. A layer's self cost is its probe
// minus the probe of the layer below.
func tracedReport(o *options, wl *workloadDef, in *input, tr *tracer, ps *passStats, out io.Writer) ([]metric, error) {
	work := float64(ps.total.work)
	ms := []metric{
		{"harness.pass_iqr_frac", iqrFrac(ps.throughput), "frac"},
		{"harness.traced_throughput_per_s", median(ps.throughput), "1/s"},
		{"harness.alloc_bytes_per_op", float64(tr.allocBytes) / work, "B"},
		{"harness.allocs_per_op", float64(tr.mallocs) / work, "count"},
		{"harness.gc_cycles", float64(tr.gcCycles), "count"},
	}
	pm, err := probes(o, in, tr)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	ms = append(ms, pm...)
	ms = append(ms, metric{"harness.spans", float64(len(tr.spans)), "count"})

	path := o.traceOut
	if path == "" {
		path = filepath.Join(os.TempDir(), "e2e-spans-"+wl.name+".jsonl")
	}
	if err := tr.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	tr.summarize(out)
	return ms, nil
}

// summarize prints, per span name, how often the traced passes (not the
// probes) ran it and how long it took.
func (tr *tracer) summarize(out io.Writer) {
	by := map[string][]float64{}
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.Pass >= 0 {
			by[sp.Name] = append(by[sp.Name], float64(sp.End-sp.Start)/1e3)
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-24s %9s %12s %12s %12s\n", "span (traced passes)", "count", "total_s", "p50_us", "p99_us")
	for _, n := range names {
		total := 0.0
		for _, v := range by[n] {
			total += v
		}
		fmt.Fprintf(out, "%-24s %9d %12.4f %12.1f %12.1f\n", n, len(by[n]), total/1e6, median(by[n]), quantile(by[n], 0.99))
	}
}

// med3 runs fn three times and returns the median wall in seconds.
func med3(fn func() error) (float64, error) {
	var s []float64
	for i := 0; i < 3; i++ {
		var err error
		s = append(s, timeIt(func() { err = fn() }))
		if err != nil {
			return 0, err
		}
	}
	return median(s), nil
}

// prober carries what one layer's probe hands to the next: the figures that
// later ratios divide by.
type prober struct {
	o   *options
	in  *input
	sc  scope // pass -1: probe spans are kept apart from the traced passes'
	sv  *serveInput
	b64 [][][]trace.FileID
	ms  []metric

	catalog                 []trace.File // as product code loaded it
	coldUS, steadyUS, durUS float64      // per-job observe cost: engine cold, engine repeat, durable
}

func (p *prober) add(name string, v float64, unit string) {
	p.ms = append(p.ms, metric{name, v, unit})
}

func probes(o *options, in *input, tr *tracer) ([]metric, error) {
	p := &prober{o: o, in: in, sc: scope{tr: tr, pass: -1, conn: -1, parent: -1},
		sv: newServeInput(in), b64: in.batches(64)}
	for _, probe := range []func() error{p.traceLayer, p.coreLayer, p.simLayer, p.durableLayer, p.wireIngest, p.adviceService, p.jsonSurface} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.ms, nil
}

// traceLayer: synth, trace, workload - the bytes' way in.
func (p *prober) traceLayer() error {
	in, n := p.in, float64(len(p.in.jobs))
	p.add("synth.generate_s", in.genS, "s")
	p.add("trace.encode_mb_per_s", float64(in.fileBytes)/1e6/in.encodeS, "MB/s")
	p.add("trace.bytes_per_job", float64(in.fileBytes)/n, "B")
	s, err := med3(func() error { _, err := trace.ReadFile(in.path); return err })
	if err != nil {
		return err
	}
	p.add("trace.decode_mapped_jobs_per_s", n/s, "1/s")
	s, err = med3(func() error {
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = trace.ReadBin(bufio.NewReaderSize(f, 1<<20))
		return err
	})
	if err != nil {
		return err
	}
	p.add("trace.decode_streamed_jobs_per_s", n/s, "1/s")
	var openS, drainS []float64
	for i := 0; i < 3; i++ {
		var src trace.Source
		openS = append(openS, timeIt(func() { src, err = workload.OpenOrdered(in.spec) }))
		if err != nil {
			return err
		}
		got := 0
		drainS = append(drainS, timeIt(func() {
			for _, err = src.Next(); err == nil; _, err = src.Next() {
				got++
			}
		}))
		src.Close()
		if err != io.EOF || got != len(in.jobs) {
			return fmt.Errorf("streamed %d of %d jobs: %v", got, len(in.jobs), err)
		}
	}
	p.add("trace.stream_next_jobs_per_s", n/median(drainS), "1/s")
	p.add("workload.open_s", median(openS), "s")
	s, err = med3(func() error {
		t, err := workload.Load(in.spec)
		if err == nil {
			p.catalog = t.Files
		}
		return err
	})
	if err != nil {
		return err
	}
	p.add("workload.load_s", s, "s")
	return nil
}

// coreLayer: the engine and the advice kernel alone, on one goroutine.
func (p *prober) coreLayer() error {
	in, sv, n := p.in, p.sv, float64(len(p.in.jobs))
	p.add("core.identify_jobs_per_s", n/in.identifyS, "1/s")
	p.add("core.filecules", float64(in.oracle.NumFilecules()), "count")
	e := core.NewEngine(0)
	observeAll := func() {
		for _, b := range p.b64 {
			e.ObserveBatch(b)
		}
	}
	p.coldUS = timeIt(observeAll) * 1e6 / n
	p.steadyUS = timeIt(observeAll) * 1e6 / n
	if e.NumFilecules() != in.oracle.NumFilecules() {
		return fmt.Errorf("engine holds %d filecules, oracle %d", e.NumFilecules(), in.oracle.NumFilecules())
	}
	p.add("core.observe_cold_us_per_job", p.coldUS, "us")
	p.add("core.observe_steady_us_per_job", p.steadyUS, "us")

	reps := 15
	if p.o.quick {
		reps = 3
	}
	var obsSnap, granBuild, settled, advise []float64
	var gran *cache.FileculeGranularity
	for i := 0; i < reps; i++ {
		var part *core.Partition
		obsSnap = append(obsSnap, 1e6*timeIt(func() { e.Observe(sv.nonEmpty[i%len(sv.nonEmpty)]); part = e.Snapshot() }))
		granBuild = append(granBuild, 1e6*timeIt(func() { gran = cache.NewFileculeGranularity(in.catalog, part) }))
		settled = append(settled, 1e6*timeIt(func() { e.Snapshot() }))
	}
	for i := 0; i < 200; i++ {
		req := cache.AdviceRequest{Capacity: sv.capacity, Files: sv.nonEmpty[(i*7919)%len(sv.nonEmpty)]}
		var err error
		advise = append(advise, 1e6*timeIt(func() { _, err = cache.Advise(gran, req) }))
		if err != nil {
			return err
		}
	}
	p.add("core.observe_snapshot_us", median(obsSnap), "us")
	p.add("cache.granularity_build_us", median(granBuild), "us")
	p.add("core.snapshot_settled_us", median(settled), "us")
	p.add("cache.advise_us", median(advise), "us")
	return nil
}

// simLayer: the grid on a materialised trace, without decode and identify.
func (p *prober) simLayer() error {
	in := p.in
	pt, pp, pspec := in.t, in.oracle, in.spec
	if len(in.jobs) > simProbeJobs {
		pt = &trace.Trace{Files: in.t.Files, Users: in.t.Users, Sites: in.t.Sites, Jobs: in.t.Jobs[:simProbeJobs]}
		pp = core.Identify(pt)
		ppath := filepath.Join(in.dir, "probe.bin")
		if _, err := writeBin(ppath, pt); err != nil {
			return err
		}
		pspec = "file,path=" + ppath
	}
	var reqs []trace.Request
	s := timeIt(func() { reqs = pt.Requests() })
	p.add("trace.requests_per_s", float64(len(reqs))/s, "1/s")
	cfg := sim.SweepConfig{Scale: in.scale}
	var direct, streamed, reference *sim.SweepResult
	var err error
	sweepS := timeIt(func() { direct, err = sim.Sweep(pt, pp, reqs, cfg) })
	if err != nil {
		return err
	}
	sourceS := timeIt(func() {
		var src trace.Source
		if src, err = workload.OpenOrdered(pspec); err == nil {
			streamed, err = sim.SweepSource(src, cfg)
			src.Close()
		}
	})
	if err != nil {
		return err
	}
	if !slices.Equal(direct.Cells, streamed.Cells) {
		return fmt.Errorf("sim.Sweep and sim.SweepSource disagree on the grid")
	}
	refS := timeIt(func() { reference, err = sim.SweepSequential(pt, pp, reqs, spotCells(in.scale)) })
	if err != nil {
		return err
	}
	p.add("sim.sweep_cellreq_per_s", float64(len(reqs)*len(direct.Cells))/sweepS, "1/s")
	p.add("sim.sweep_share", sweepS/sourceS, "frac")
	p.add("sim.cells", float64(len(direct.Cells)), "count")
	gain := 0.0
	if file, fc := findCell(direct.Cells, "lru", "file", 50), findCell(direct.Cells, "lru", "filecule", 50); fc.MissRate > 0 {
		gain = file.MissRate / fc.MissRate
	}
	p.add("sim.lru_gain_50tb", gain, "x")
	p.add("cache.sequential_lru_req_per_s", float64(len(reqs)*len(reference.Cells))/refS, "1/s")
	return nil
}

// durableLayer: the WAL and checkpoints under the engine, no network. Same
// shape as an ingest-durable pass - checkpoint at 1/4, close and reopen at
// 1/2, checkpoint at 3/4 - plus a checkpoint at the end.
func (p *prober) durableLayer() error {
	in, n := p.in, float64(len(p.in.jobs))
	dir := filepath.Join(in.dir, "probe-state")
	defer os.RemoveAll(dir)
	nb := len(p.b64)
	cut := [5]int{0, nb / 4, nb / 2, 3 * nb / 4, nb}
	var d *durable.Engine
	var err error // the first failure; every later step is skipped
	step := func(fn func() error) float64 {
		return timeIt(func() {
			if err == nil {
				err = fn()
			}
		})
	}
	open := func(opts durable.Options) float64 {
		return step(func() (oerr error) { d, oerr = durable.Open(opts); return oerr })
	}
	observe := func(lo, hi int) float64 {
		return step(func() error {
			for _, b := range p.b64[lo:hi] {
				if err := d.ObserveBatch(b); err != nil {
					return err
				}
			}
			return nil
		})
	}
	open(durable.Options{Dir: dir})
	if err != nil {
		return err
	}
	obsS := observe(cut[0], cut[1])
	ckptS := []float64{step(d.Checkpoint)}
	obsS += observe(cut[1], cut[2])
	closeS := step(d.Close)
	if err != nil {
		return err
	}
	rep, err := durable.Inspect(dir)
	if err != nil {
		return err
	}
	var walBytes, walJobs int64
	for _, seg := range rep.Segments {
		walBytes += seg.Bytes
		walJobs += seg.Jobs
	}
	recoverS := open(durable.Options{Dir: dir})
	if err != nil {
		return err
	}
	replayed := d.Recovery().ReplayedJobs
	obsS += observe(cut[2], cut[3])
	ckptS = append(ckptS, step(d.Checkpoint))
	obsS += observe(cut[3], cut[4])
	// A third checkpoint in the same process: the encode cache is empty
	// after a reopen, so only this one can reuse groups the last quarter
	// left untouched.
	ckptS = append(ckptS, step(d.Checkpoint))
	st := d.Stats()
	step(func() error {
		if got := d.Core().NumFilecules(); got != in.oracle.NumFilecules() {
			return fmt.Errorf("durable engine holds %d filecules, oracle %d", got, in.oracle.NumFilecules())
		}
		return nil
	})
	step(d.Close)
	if err != nil {
		return err
	}
	p.durUS = obsS * 1e6 / n
	p.add("durable.observe_us_per_job", p.durUS, "us")
	p.add("durable.wal_self_us_per_job", p.durUS-p.coldUS, "us")
	p.add("durable.wal_bytes_per_job", float64(walBytes)/float64(max(walJobs, 1)), "B")
	p.add("durable.checkpoint_s", median(ckptS), "s")
	p.add("durable.checkpoint_mb", float64(st.LastBytes)/1e6, "MB")
	p.add("durable.ckpt_reuse_frac", float64(st.LastReused)/float64(max(st.LastGroups, 1)), "frac")
	p.add("durable.recover_s", recoverS, "s")
	p.add("durable.replayed_jobs", float64(replayed), "count")
	p.add("durable.close_s", closeS, "s")

	// Strict commit: the sandbox's fsync, reported as such and nowhere timed.
	sdir := filepath.Join(in.dir, "probe-sync")
	defer os.RemoveAll(sdir)
	open(durable.Options{Dir: sdir, SyncCommit: true})
	if err != nil {
		return err
	}
	commits := 300
	if p.o.quick {
		commits = 10
	}
	var commit []float64
	for i := 0; i < commits; i++ {
		commit = append(commit, 1e6*step(func() error { return d.Observe(p.sv.nonEmpty[i%len(p.sv.nonEmpty)]) }))
	}
	step(d.Close)
	p.add("durable.sync_commit_p50_us", median(commit), "us")
	return err
}

// wireIngest: ingest-durable's path without the restart - the whole trace in
// 64-job batches into a durable server, then the partition both ways.
func (p *prober) wireIngest() error {
	in, n := p.in, float64(len(p.in.jobs))
	dir := filepath.Join(in.dir, "probe-state")
	defer os.RemoveAll(dir)
	x, err := boot(in, dir, p.sc)
	if err != nil {
		return err
	}
	cs, err := x.dial()
	if err != nil {
		x.stop()
		return err
	}
	ing := ingestWire(cs, p.b64, 0, len(p.b64), p.sc)
	// A summary pays the first snapshot, so the two partition reads compare
	// the surfaces' encode, transfer and decode on the same settled state.
	_, err = cs[0].Summary()
	var part *wire.PartitionReply
	partS := timeIt(func() {
		if err == nil {
			part, err = cs[0].Partition()
		}
	})
	if err == nil && len(part.Filecules) != in.oracle.NumFilecules() {
		err = fmt.Errorf("wire partition has %d filecules, oracle %d", len(part.Filecules), in.oracle.NumFilecules())
	}
	if err == nil {
		err = x.checkPartition(in, p.sc)
	}
	closeAll(cs)
	if serr := x.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var frame []byte
	frameBytes := 0
	for _, b := range p.b64 {
		frame = wire.AppendBatchRequest(frame[:0], b)
		frameBytes += len(frame)
	}
	rtt := p.sc.tr.micros("wire.batch")
	p.add("wire.batch_rtt_p50_us", median(rtt), "us")
	p.add("wire.batch_rtt_p99_us", quantile(rtt, 0.99), "us")
	p.add("wire.request_bytes_per_job", float64(frameBytes)/n, "B")
	p.add("wire.overhead_x", ing.wall.Seconds()*1e6/n/p.durUS, "x")
	p.add("wire.partition_s", partS, "s")
	p.add("server.http_partition_s", median(p.sc.tr.micros("http.partition"))/1e6, "s")
	p.add("server.partition_json_mb", float64(len(in.oracleJSON))/1e6, "MB")
	return nil
}

// adviceService: a short mixed phase, then a short read phase, on one
// prefilled server - the serve workloads' per-operation view.
func (p *prober) adviceService() error {
	x, err := boot(p.in, "", p.sc)
	if err != nil {
		return err
	}
	_, err = servePass(x, p.sv, p.o.phase()/2, false, p.sc)
	if err == nil {
		_, err = servePhase(x, p.sv, p.o.phase()/2, true, p.sc)
	}
	if err == nil {
		err = p.quietObserves(x)
	}
	if serr := x.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	observeRTT, adviseRTT := median(p.sc.tr.micros("quiet.observe")), median(p.sc.tr.micros("read.advise"))
	mixedAdvise := p.sc.tr.micros("mixed.advise")
	slow := 0 // advises that paid a rebuild: the mixed phase's wasted work
	for _, v := range mixedAdvise {
		if v > 10*adviseRTT {
			slow++
		}
	}
	p.add("wire.observe_rtt_p50_us", observeRTT, "us")
	p.add("wire.advise_rtt_p50_us", adviseRTT, "us")
	p.add("wire.filecule_rtt_p50_us", median(p.sc.tr.micros("read.filecule")), "us")
	p.add("wire.summary_rtt_p50_us", median(p.sc.tr.micros("read.summary")), "us")
	p.add("wire.observe_overhead_x", observeRTT/p.steadyUS, "x")
	p.add("wire.mixed_advise_p50_us", median(mixedAdvise), "us")
	p.add("wire.mixed_advise_p99_us", quantile(mixedAdvise, 0.99), "us")
	p.add("wire.mixed_advise_slow_frac", float64(slow)/float64(max(len(mixedAdvise), 1)), "frac")
	return nil
}

// quietObserves re-submits jobs one round trip at a time on one connection
// with nothing else running: the wire layer's cost over the engine's repeat
// path. In the mixed phase an observe also waits behind the other
// connection's snapshot rebuild; those spans are mixed.observe.
func (p *prober) quietObserves(x *instance) error {
	c, err := wire.Dial(x.wireAddr, 0)
	if err != nil {
		return err
	}
	defer c.Close()
	n := 2000
	if p.o.quick {
		n = 100
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := c.Observe(p.sv.nonEmpty[(i*7919)%len(p.sv.nonEmpty)]); err != nil {
			return err
		}
		p.sc.leaf("quiet.observe", start)
	}
	return nil
}

// jsonSurface: one job per POST over loopback, then the same bodies through
// the handler with no TCP underneath.
func (p *prober) jsonSurface() error {
	bodies, err := jobBodies(p.in.jobs[:min(len(p.in.jobs), httpProbeJobs)])
	if err != nil {
		return err
	}
	x, err := boot(p.in, "", p.sc)
	if err != nil {
		return err
	}
	ing := ingestHTTP(x, bodies, p.sc)
	if err := x.stop(); err != nil {
		return err
	}
	if ing.failed > 0 {
		return fmt.Errorf("http probe: %d of %d posts failed", ing.failed, ing.attempted)
	}
	bodyBytes := 0
	for _, b := range bodies {
		bodyBytes += len(b)
	}
	h := server.New(server.Config{Catalog: p.catalog}).Handler()
	handlerS := timeIt(func() {
		for _, b := range bodies {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b)))
			if w.Code != http.StatusOK && err == nil {
				err = fmt.Errorf("handler answered %d", w.Code)
			}
		}
	})
	if err != nil {
		return err
	}
	n := float64(len(bodies))
	post := p.sc.tr.micros("http.observe")
	p.add("server.boot_s", median(p.sc.tr.micros("server.New+listen"))/1e6, "s")
	p.add("server.http_observe_p50_us", median(post), "us")
	p.add("server.http_observe_p99_us", quantile(post, 0.99), "us")
	p.add("server.json_bytes_per_job", float64(bodyBytes)/n, "B")
	p.add("server.handler_observe_us", handlerS*1e6/n, "us")
	p.add("server.http_overhead_x", ing.wall.Seconds()*1e6/n/p.coldUS, "x")
	return nil
}

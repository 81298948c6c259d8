package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/cache"
	"filecule/internal/durable"
	"filecule/internal/server"
	"filecule/internal/trace"
	"filecule/internal/wire"
	"filecule/internal/workload"
)

// conns is the closed-loop client count: callers of this service are
// schedulers and cache nodes that wait for their reply, and the sandbox has
// two cores.
const conns = 2

// tally counts the operations of a timed region. A transport error, a
// non-2xx status or a wire 'e' frame is a failed operation; its work is not
// counted.
type tally struct {
	work, attempted, failed int64
	wall                    time.Duration
}

func (a *tally) add(b tally) {
	a.work += b.work
	a.attempted += b.attempted
	a.failed += b.failed
	a.wall += b.wall
}

// instance is one booted filecule-serve equivalent: catalog loaded from the
// trace file, optional durable state, HTTP and wire listeners on loopback.
type instance struct {
	base     string // http://127.0.0.1:port
	wireAddr string
	d        *durable.Engine
	cancel   context.CancelFunc
	done     chan error
	hc       *http.Client
}

// boot does what filecule-serve does between exec and "listening": load the
// catalog through the workload registry, open the state directory when one is
// given (default options: 50 ms interval sync), build the server and bind
// both listeners.
func boot(in *input, stateDir string, sc scope) (*instance, error) {
	id := sc.open("workload.Load")
	t, err := workload.Load(in.spec)
	sc.close(id)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	cfg := server.Config{Catalog: t.Files}
	x := &instance{done: make(chan error, 2)}
	if stateDir != "" {
		id = sc.open("durable.Open")
		x.d, err = durable.Open(durable.Options{Dir: stateDir})
		sc.close(id)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		cfg.Durable = x.d
	}
	id = sc.open("server.New+listen")
	s := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	x.cancel = cancel
	hready, wready := make(chan net.Addr, 1), make(chan net.Addr, 1)
	go func() { x.done <- s.ListenAndRun(ctx, "127.0.0.1:0", hready) }()
	go func() { x.done <- s.ListenAndRunWire(ctx, "127.0.0.1:0", wready) }()
	for x.base == "" || x.wireAddr == "" {
		select {
		case a := <-hready:
			x.base = "http://" + a.String()
		case a := <-wready:
			x.wireAddr = a.String()
		case err := <-x.done:
			x.done <- err
			return nil, fmt.Errorf("boot: listener stopped early: %v (shutdown: %v)", err, x.stop())
		}
	}
	sc.close(id)
	// One transport per instance, sized so both closed-loop goroutines keep
	// their own keep-alive connection.
	x.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}
	return x, nil
}

// stop is a graceful shutdown without a checkpoint: drain both listeners,
// then sync and close the WAL.
func (x *instance) stop() error {
	if x.hc != nil {
		x.hc.CloseIdleConnections()
	}
	x.cancel()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-x.done; err != nil && first == nil {
			first = err
		}
	}
	if x.d != nil {
		if err := x.d.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing state: %w", err)
		}
	}
	return first
}

func (x *instance) dial() ([conns]*wire.Client, error) {
	var cs [conns]*wire.Client
	for i := range cs {
		c, err := wire.Dial(x.wireAddr, 0)
		if err != nil {
			closeAll(cs)
			return cs, err
		}
		cs[i] = c
	}
	return cs, nil
}

func closeAll(cs [conns]*wire.Client) {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

// ingestWire sends batches[lo:hi] over the two connections, each claiming
// the next unsent batch from a shared counter and waiting for its reply.
func ingestWire(cs [conns]*wire.Client, batches [][][]trace.FileID, lo, hi int, sc scope) tally {
	var next, work, failed atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range cs {
		wg.Add(1)
		go func(c *wire.Client, sc scope) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				start := time.Now()
				_, err := c.Batch(batches[i])
				sc.leaf("wire.batch", start)
				if err != nil {
					failed.Add(1)
					continue
				}
				work.Add(int64(len(batches[i])))
			}
		}(c, sc.onConn(ci))
	}
	wg.Wait()
	return tally{work: work.Load(), attempted: int64(hi - lo), failed: failed.Load(), wall: time.Since(t0)}
}

// post does one HTTP POST round trip and drains the reply so the
// connection is reused.
func (x *instance) post(url string, body []byte) error {
	resp, err := x.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// ingestHTTP posts the bodies to /v1/jobs, one job per request, from the two
// keep-alive connections.
func ingestHTTP(x *instance, bodies [][]byte, sc scope) tally {
	n, url := len(bodies), x.base+"/v1/jobs"
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(sc scope) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now()
				err := x.post(url, bodies[i])
				sc.leaf("http.observe", start)
				if err != nil {
					failed.Add(1)
				}
			}
		}(sc.onConn(ci))
	}
	wg.Wait()
	return tally{work: int64(n) - failed.Load(), attempted: int64(n), failed: failed.Load(), wall: time.Since(t0)}
}

// checkpoint is the operator's POST /v1/admin/checkpoint.
func (x *instance) checkpoint(sc scope) tally {
	t0 := time.Now()
	err := x.post(x.base+"/v1/admin/checkpoint", nil)
	sc.leaf("http.checkpoint", t0)
	ta := tally{attempted: 1, wall: time.Since(t0)}
	if err != nil {
		ta.failed = 1
	}
	return ta
}

// checkPartition holds GET /v1/partition to the oracle, byte for byte.
func (x *instance) checkPartition(in *input, sc scope) error {
	t0 := time.Now()
	resp, err := x.hc.Get(x.base + "/v1/partition")
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sc.leaf("http.partition", t0)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/partition: HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(got), in.oracleJSON) {
		return fmt.Errorf("served partition differs from core.Identify (%d vs %d bytes)", len(got), len(in.oracleJSON))
	}
	return nil
}

// --- the advice service's request mix ---

const (
	opObserve = iota
	opAdvise
	opFilecule
	opSummary
	maxResident = 256 // units a simulated cache node reports as resident
	verifyEvery = 64  // every n-th Advise/Filecule reply is held to the oracle
)

var opNames = [...]string{"observe", "advise", "filecule", "summary"}

// serveInput is what the serve workloads derive from the input once per run.
type serveInput struct {
	*input
	nonEmpty [][]trace.FileID // jobs with at least one input file
	gran     *cache.FileculeGranularity
	capacity int64
	prefill  [][][]trace.FileID
}

func newServeInput(in *input) *serveInput {
	sv := &serveInput{input: in,
		gran:     cache.NewFileculeGranularity(in.catalog, in.oracle),
		capacity: int64(1e12 * in.scale),
		prefill:  in.batches(256),
	}
	for _, j := range in.jobs {
		if len(j) > 0 {
			sv.nonEmpty = append(sv.nonEmpty, j)
		}
	}
	return sv
}

// client is one simulated caller: a cache node that asks for advice, applies
// it to its own residency list, and now and then re-submits a job.
type client struct {
	c        *wire.Client
	rng      *rand.Rand
	resident []cache.ResidentUnit // least recently advised first
	clock    int64
	spans    [len(opNames)]string // span name per operation in this phase
	done     [len(opNames)]int64
	failed   int64
	bad      error // first reply that disagreed with the oracle
}

func (cl *client) touch(u cache.UnitID) {
	cl.drop(u)
	cl.clock++
	cl.resident = append(cl.resident, cache.ResidentUnit{Unit: u, LastAccess: cl.clock})
}

func (cl *client) drop(u cache.UnitID) {
	for i := range cl.resident {
		if cl.resident[i].Unit == u {
			cl.resident = append(cl.resident[:i], cl.resident[i+1:]...)
			return
		}
	}
}

// step issues the next operation of the client's seeded stream: 45 % observe
// (a re-request of a trace job, so membership is stable), 45 % advise, 8 %
// filecule lookup, 2 % summary; readOnly turns the observes into advises.
func (cl *client) step(sv *serveInput, readOnly bool, sc scope, start time.Time) {
	r := cl.rng.Float64()
	job := sv.nonEmpty[cl.rng.Intn(len(sv.nonEmpty))]
	op := opSummary
	switch {
	case r < 0.45 && !readOnly:
		op = opObserve
	case r < 0.90:
		op = opAdvise
	case r < 0.98:
		op = opFilecule
	}
	sample := cl.done[op]%verifyEvery == 0
	var err error
	switch op {
	case opObserve:
		var rep wire.ObserveReply
		rep, err = cl.c.Observe(job)
		sc.leaf(cl.spans[op], start)
		if err == nil && rep.Filecules != sv.oracle.NumFilecules() {
			cl.fail("observe: %d filecules, oracle has %d", rep.Filecules, sv.oracle.NumFilecules())
		}
	case opAdvise:
		req := cache.AdviceRequest{Capacity: sv.capacity, Files: job, Resident: cl.resident}
		var rep *wire.AdviceReply
		rep, err = cl.c.Advise(req)
		sc.leaf(cl.spans[op], start)
		if err != nil {
			break
		}
		if sample {
			cl.checkAdvice(sv, req, rep)
		}
		for _, u := range rep.Evict {
			cl.drop(u)
		}
		for _, u := range rep.Hits {
			cl.touch(u)
		}
		for _, l := range rep.Load {
			cl.touch(l.Unit)
		}
		if over := len(cl.resident) - maxResident; over > 0 {
			cl.resident = append(cl.resident[:0], cl.resident[over:]...)
		}
	case opFilecule:
		f := job[cl.rng.Intn(len(job))]
		var rep *wire.FileculeLookupReply
		rep, err = cl.c.Filecule(f)
		sc.leaf(cl.spans[op], start)
		if err == nil && sample {
			if want := sv.oracle.FileculeOf(f); want == nil {
				cl.fail("filecule of file %d: served id %d, oracle has none", f, rep.ID)
			} else if rep.ID != want.ID || !slices.Equal(rep.Files, want.Files) {
				cl.fail("filecule of file %d: id %d with %d files, oracle has id %d with %d files",
					f, rep.ID, len(rep.Files), want.ID, len(want.Files))
			}
		}
	case opSummary:
		var rep wire.SummaryReply
		rep, err = cl.c.Summary()
		sc.leaf(cl.spans[op], start)
		if err == nil && (rep.Filecules != sv.oracle.NumFilecules() || rep.Files != sv.oracle.NumFiles()) {
			cl.fail("summary: %d filecules over %d files, oracle has %d over %d",
				rep.Filecules, rep.Files, sv.oracle.NumFilecules(), sv.oracle.NumFiles())
		}
	}
	if err != nil {
		cl.failed++
		return
	}
	cl.done[op]++
}

func (cl *client) fail(format string, args ...any) {
	if cl.bad == nil {
		cl.bad = fmt.Errorf(format, args...)
	}
}

// checkAdvice recomputes the plan on the oracle's granularity. Unit IDs are
// positions in the canonical partition, which re-requests never move.
func (cl *client) checkAdvice(sv *serveInput, req cache.AdviceRequest, got *wire.AdviceReply) {
	want, err := cache.Advise(sv.gran, req)
	if err != nil {
		cl.fail("oracle advise: %v", err)
		return
	}
	same := slices.Equal(got.Hits, want.Hits) && slices.Equal(got.Evict, want.Evict) &&
		slices.Equal(got.Bypassed, want.Bypassed) && len(got.Load) == len(want.Load) &&
		got.BytesToLoad == want.BytesToLoad && got.BytesToEvict == want.BytesToEvict
	for i := 0; same && i < len(want.Load); i++ {
		g, w := got.Load[i], want.Load[i]
		same = g.Unit == w.Unit && g.Bytes == w.Bytes && slices.Equal(g.Files, w.Files)
	}
	if !same {
		cl.fail("advice for a %d-file job with %d resident units differs from cache.Advise on the oracle partition",
			len(req.Files), len(req.Resident))
	}
}

// servePhase drives both clients for dur, checking the deadline before every
// operation. The op streams are reseeded from the run seed on every call, so
// every pass of a run issues the same requests.
func servePhase(x *instance, sv *serveInput, dur time.Duration, readOnly bool, sc scope) (tally, error) {
	phase := "mixed"
	if readOnly {
		phase = "read"
	}
	cs, err := x.dial()
	if err != nil {
		return tally{}, err
	}
	defer closeAll(cs)
	var cls [conns]*client
	for i := range cls {
		cls[i] = &client{c: cs[i], rng: rand.New(rand.NewSource(sv.seed*conns + int64(i)))}
		for op, name := range opNames {
			cls[i].spans[op] = phase + "." + name
		}
	}
	// Pay the first snapshot and granularity build before the clock starts:
	// a settled service has them, and the mixed phase rebuilds them anyway.
	if _, err := cs[0].Advise(cache.AdviceRequest{Capacity: sv.capacity, Files: sv.nonEmpty[0]}); err != nil {
		return tally{}, fmt.Errorf("warm-up advise: %w", err)
	}
	// One untimed summary anchors the pass to the oracle whatever the mix draws.
	if rep, err := cs[0].Summary(); err != nil {
		return tally{}, fmt.Errorf("summary: %w", err)
	} else if rep.Filecules != sv.oracle.NumFilecules() || rep.Files != sv.oracle.NumFiles() || rep.Observed < int64(len(sv.jobs)) {
		return tally{}, fmt.Errorf("summary after prefill: %d jobs, %d filecules over %d files; oracle has %d, %d over %d",
			rep.Observed, rep.Filecules, rep.Files, len(sv.jobs), sv.oracle.NumFilecules(), sv.oracle.NumFiles())
	}
	id := sc.open("phase." + phase)
	ta := sc.timed(func() tally {
		var wg sync.WaitGroup
		t0 := time.Now()
		deadline := t0.Add(dur)
		for i, cl := range cls {
			wg.Add(1)
			go func(cl *client, sc scope) {
				defer wg.Done()
				// One clock read per operation: an operation starts when
				// the previous one's reply has been handled.
				for start := t0; start.Before(deadline) && cl.bad == nil; start = time.Now() {
					cl.step(sv, readOnly, sc, start)
				}
			}(cl, sc.under(id).onConn(i))
		}
		wg.Wait()
		return tally{wall: time.Since(t0)}
	})
	sc.close(id)
	for _, cl := range cls {
		if cl.bad != nil {
			return ta, cl.bad
		}
		for _, n := range cl.done {
			ta.work += n
		}
		ta.failed += cl.failed
	}
	ta.attempted = ta.work + ta.failed
	return ta, nil
}

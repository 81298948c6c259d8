package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/stats"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// LoadGen replays a trace's jobs against a running server from many
// concurrent clients — the closed-loop generator behind the -selftest flag
// and a reusable benchmarking harness. Each client loops: take the next
// unclaimed job (or batch of jobs), POST it, measure the round trip.
type LoadGen struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// WireAddr, when non-empty, replays over the binary wire protocol
	// (filecule-wire/v1) against this TCP address instead of HTTP: each
	// client holds one persistent connection and does one synchronous
	// observe or batch round trip per claim. BaseURL is ignored.
	WireAddr string
	// Clients is the number of concurrent submitters; <= 0 means 8.
	Clients int
	// BatchSize groups jobs per request; <= 1 posts one job per request.
	BatchSize int
	// Shape, when not ShapeNone, paces submission to the RPS schedule
	// (ramp/sweep/burst, as in the invitro trace synthesizer): the k'th
	// claimed job is not posted before replay-start + schedule-offset(k),
	// so offered load follows the profile instead of running closed-loop
	// flat out.
	Shape synth.Shape
}

// LoadReport summarizes one replay.
type LoadReport struct {
	Jobs     int           // jobs replayed
	Requests int64         // HTTP requests issued
	Errors   int64         // transport errors or non-2xx responses
	Duration time.Duration // wall-clock replay time
	// Latency summarizes per-request round-trip seconds.
	Latency stats.Summary
}

// JobsPerSec returns the replay throughput.
func (r *LoadReport) JobsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Jobs) / r.Duration.Seconds()
}

// String renders the report for terminal output.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"replayed %d jobs in %d requests over %v (%.0f jobs/s, %d errors)\n"+
			"latency: p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms",
		r.Jobs, r.Requests, r.Duration.Round(time.Millisecond), r.JobsPerSec(), r.Errors,
		r.Latency.Median*1e3, r.Latency.P90*1e3, r.Latency.P99*1e3, r.Latency.Max*1e3)
}

// replayTimeout bounds each HTTP request or wire round trip.
const replayTimeout = 30 * time.Second

// Replay posts every job of t and blocks until all are acknowledged. Clients
// claim index ranges of t.Jobs in order under a mutex and post them
// concurrently; the jobs are read in place, never copied. It is safe to call
// on a live server; jobs interleave with other traffic.
func (g *LoadGen) Replay(t *trace.Trace) (*LoadReport, error) {
	clients := g.Clients
	if clients <= 0 {
		clients = 8
	}
	batch := g.BatchSize
	if batch < 1 {
		batch = 1
	}
	hc := &http.Client{
		Timeout: replayTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        clients * 2,
			MaxIdleConnsPerHost: clients * 2,
		},
	}
	// The pool can hold a connection that was dialed but never carried a
	// request; a server counts such a connection as idle only after 5 s, so
	// left open it stalls the server's graceful shutdown that long.
	defer hc.CloseIdleConnections()
	if err := g.Shape.Validate(); err != nil {
		return nil, err
	}
	pacer := synth.NewPacer(g.Shape)

	var mu sync.Mutex // guards next and pacer
	next := 0
	// claim takes the next up to batch jobs as t.Jobs[lo:hi] with the
	// first one's not-before submission offset under the RPS schedule (the
	// pacer advances once per claimed job, serialized by the same mutex
	// that orders claims).
	claim := func() (lo, hi int, notBefore time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		lo, hi = next, min(next+batch, len(t.Jobs))
		for k := lo; k < hi; k++ {
			if off := pacer.Next(); k == lo {
				notBefore = off
			}
		}
		next = hi
		return lo, hi, notBefore
	}

	var requests, errs int64
	latencies := make([][]float64, clients)
	var firstErr error
	var errOnce sync.Once

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var wc *wire.Client
			if g.WireAddr != "" {
				var err error
				wc, err = wire.Dial(g.WireAddr, replayTimeout)
				if err != nil {
					atomic.AddInt64(&errs, 1)
					errOnce.Do(func() { firstErr = fmt.Errorf("dial wire %s: %w", g.WireAddr, err) })
					return
				}
				defer wc.Close()
			}
			for {
				lo, hi, notBefore := claim()
				if lo == hi {
					return
				}
				if g.Shape.Mode != synth.ShapeNone {
					time.Sleep(time.Until(start.Add(notBefore)))
				}
				var err error
				t0 := time.Now()
				if wc != nil {
					err = g.postWire(wc, t.Jobs[lo:hi])
					atomic.AddInt64(&requests, 1)
				} else {
					err = g.postHTTP(hc, t.Jobs[lo:hi], &requests)
				}
				if err != nil {
					atomic.AddInt64(&errs, 1)
					errOnce.Do(func() {
						firstErr = fmt.Errorf("jobs %d..%d: %w", lo, hi-1, err)
					})
					continue
				}
				latencies[c] = append(latencies[c], time.Since(t0).Seconds())
			}
		}(c)
	}
	wg.Wait()

	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	rep := &LoadReport{
		Jobs:     next,
		Requests: requests,
		Errors:   errs,
		Duration: time.Since(start),
		Latency:  stats.Summarize(all),
	}
	if errs > 0 {
		return rep, fmt.Errorf("loadgen: %d of %d requests failed (first: %v)", errs, requests, firstErr)
	}
	return rep, nil
}

// postHTTP submits one claim of jobs over HTTP/JSON.
func (g *LoadGen) postHTTP(hc *http.Client, buf []trace.Job, requests *int64) error {
	url, body, err := g.encodeJobs(buf)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	atomic.AddInt64(requests, 1)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// postWire submits one claim of jobs as a single wire round trip.
func (g *LoadGen) postWire(wc *wire.Client, buf []trace.Job) error {
	if len(buf) == 1 && g.BatchSize <= 1 {
		_, err := wc.Observe(buf[0].Files)
		return err
	}
	jobs := make([][]trace.FileID, len(buf))
	for i := range buf {
		jobs[i] = buf[i].Files
	}
	_, err := wc.Batch(jobs)
	return err
}

// encodeJobs builds the request URL and JSON body for a claim of jobs.
func (g *LoadGen) encodeJobs(jobs []trace.Job) (url string, body []byte, err error) {
	if len(jobs) == 1 && g.BatchSize <= 1 {
		body, err = json.Marshal(JobBody{Files: jobs[0].Files})
		return g.BaseURL + "/v1/jobs", body, err
	}
	b := BatchBody{Jobs: make([]JobBody, len(jobs))}
	for i := range jobs {
		b.Jobs[i] = JobBody{Files: jobs[i].Files}
	}
	body, err = json.Marshal(b)
	return g.BaseURL + "/v1/jobs/batch", body, err
}

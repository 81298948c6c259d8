package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// latencyEdges are the fixed histogram bucket upper bounds (seconds) used
// for the Prometheus-style exposition. Log-spaced from 100µs to 10s, which
// brackets everything from an in-memory observe to a full-trace snapshot.
var latencyEdges = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// routeMetrics accumulates counters for one route.
type routeMetrics struct {
	byCode  map[int]int64
	buckets []int64 // per-bucket counts, same index as latencyEdges; +Inf is n
	sum     float64 // total seconds
	n       int64
}

// quantile estimates the q-th latency quantile (0 < q <= 1) of a route with
// at least one request from its buckets, the way Prometheus's
// histogram_quantile does: linear inside the bucket the rank falls in (the
// first bucket starting at 0), and the last edge for a rank above it.
func (r *routeMetrics) quantile(q float64) float64 {
	rank := q * float64(r.n)
	var cum int64
	lower := 0.0
	for i, edge := range latencyEdges {
		if c := r.buckets[i]; float64(cum+c) >= rank {
			return lower + (edge-lower)*(rank-float64(cum))/float64(c)
		}
		cum += r.buckets[i]
		lower = edge
	}
	return lower
}

// Metrics collects request counters and latency distributions per route and
// renders them in the Prometheus text exposition format. All methods are
// safe for concurrent use.
type Metrics struct {
	start time.Time
	mu    sync.Mutex
	route map[string]*routeMetrics
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), route: make(map[string]*routeMetrics)}
}

// Observe records one request on route with the given status code and
// duration.
func (m *Metrics) Observe(route string, code int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.route[route]
	if r == nil {
		r = &routeMetrics{
			byCode:  make(map[int]int64),
			buckets: make([]int64, len(latencyEdges)),
		}
		m.route[route] = r
	}
	r.byCode[code]++
	r.sum += sec
	r.n++
	if i := sort.SearchFloat64s(latencyEdges, sec); i < len(latencyEdges) {
		r.buckets[i]++
	}
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach through this wrapper to the
// connection's deadline controls; without it SetReadDeadline silently
// degrades to ErrNotSupported and the per-body deadline never arms.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps h so every request is timed and counted under route.
func (m *Metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		m.Observe(route, rec.code, time.Since(t0))
	}
}

// WritePrometheus renders all counters in the Prometheus text format:
// request totals by route and code, latency histograms with cumulative
// buckets, and quantile gauges estimated from those buckets over every
// request since start.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE filecule_server_uptime_seconds gauge\n")
	fmt.Fprintf(w, "filecule_server_uptime_seconds %g\n", time.Since(m.start).Seconds())

	routes := make([]string, 0, len(m.route))
	for name := range m.route {
		routes = append(routes, name)
	}
	sort.Strings(routes)

	fmt.Fprintf(w, "# TYPE filecule_server_requests_total counter\n")
	for _, name := range routes {
		r := m.route[name]
		codes := make([]int, 0, len(r.byCode))
		for c := range r.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "filecule_server_requests_total{route=%q,code=\"%d\"} %d\n", name, c, r.byCode[c])
		}
	}

	fmt.Fprintf(w, "# TYPE filecule_server_request_seconds histogram\n")
	for _, name := range routes {
		r := m.route[name]
		var cum int64
		for i, edge := range latencyEdges {
			cum += r.buckets[i]
			fmt.Fprintf(w, "filecule_server_request_seconds_bucket{route=%q,le=\"%g\"} %d\n", name, edge, cum)
		}
		fmt.Fprintf(w, "filecule_server_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, r.n)
		fmt.Fprintf(w, "filecule_server_request_seconds_sum{route=%q} %g\n", name, r.sum)
		fmt.Fprintf(w, "filecule_server_request_seconds_count{route=%q} %d\n", name, r.n)
	}

	fmt.Fprintf(w, "# TYPE filecule_server_request_seconds_quantile gauge\n")
	for _, name := range routes {
		r := m.route[name]
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "filecule_server_request_seconds_quantile{route=%q,quantile=\"%g\"} %g\n",
				name, q, r.quantile(q))
		}
	}
}

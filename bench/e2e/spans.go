package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"filecule/internal/stats"
)

// span is one timed call the harness made into product code, or a pass or
// phase that groups such calls. Parent is the index of the span that caused
// it (-1 for a root); spans of one pass share Pass, and Pass -1 marks the
// layer probes that follow the traced passes.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Conn   int    `json:"conn"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// allocation and GC-cycle deltas summed over the passes' timed regions
	allocBytes, mallocs uint64
	gcCycles            uint32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope says where a span hangs: which pass, which connection, under which
// parent. It is passed by value down the call tree.
type scope struct {
	tr     *tracer
	pass   int
	conn   int
	parent int
}

func (s scope) under(parent int) scope { s.parent = parent; return s }
func (s scope) onConn(c int) scope     { s.conn = c; return s }

// open starts a span that will have children; close ends it.
func (s scope) open(name string) int {
	if s.tr == nil {
		return -1
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	id := len(s.tr.spans)
	s.tr.spans = append(s.tr.spans, span{ID: id, Name: name, Pass: s.pass, Conn: s.conn,
		Start: int64(time.Since(s.tr.t0)), Parent: s.parent})
	return id
}

func (s scope) close(id int) {
	if s.tr == nil {
		return
	}
	end := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans[id].End = end
	s.tr.mu.Unlock()
}

// leaf records a finished childless span that began at start.
func (s scope) leaf(name string, start time.Time) {
	if s.tr == nil {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{ID: len(s.tr.spans), Name: name, Pass: s.pass, Conn: s.conn,
		Start: int64(start.Sub(s.tr.t0)), End: int64(end.Sub(s.tr.t0)), Parent: s.parent})
	s.tr.mu.Unlock()
}

// timed runs one timed region of a pass. A traced run also charges the
// region's allocation and GC-cycle deltas to the tracer; the reads sit outside
// the wall the region itself measures.
func (s scope) timed(fn func() tally) tally {
	if s.tr == nil || s.pass < 0 {
		return fn()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	ta := fn()
	runtime.ReadMemStats(&b)
	s.tr.mu.Lock()
	s.tr.allocBytes += b.TotalAlloc - a.TotalAlloc
	s.tr.mallocs += b.Mallocs - a.Mallocs
	s.tr.gcCycles += b.NumGC - a.NumGC
	s.tr.mu.Unlock()
	return ta
}

// micros returns the durations, in microseconds, of the probe spans (pass
// -1) with the given name.
func (tr *tracer) micros(name string) []float64 {
	var out []float64
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.Pass == -1 && sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e3)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is stats.Quantile (linear interpolation between order
// statistics), with 0 for an empty sample: a smoke run may record no span of
// some kind.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return stats.Quantile(vs, q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles follows Python's statistics.quantiles(vs, n=4), the rule the
// benchmark's acceptance check applies to a set of runs. Fewer than two
// values have no spread: all three quartiles are the value itself.
func quartiles(vs []float64) (q [3]float64) {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	n := len(vs)
	if n < 2 {
		for i := range q {
			q[i] = median(vs)
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return q
}

// iqrFrac is the distance between the quartiles as a share of the median:
// the noise gauge printed beside every median.
func iqrFrac(vs []float64) float64 {
	q := quartiles(vs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// timeIt returns how long fn took, in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

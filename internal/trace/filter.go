package trace

import "time"

// Windows partitions the trace's span into n equal time windows and returns
// the jobs starting in each window, as positions in t.Jobs, in window order.
// Jobs are assigned by start time; every job lands in exactly one window.
// n must be >= 1.
func (t *Trace) Windows(n int) [][]JobID {
	if n < 1 {
		panic("trace: Windows needs n >= 1")
	}
	out := make([][]JobID, n)
	start, end, ok := t.Span()
	if !ok {
		return out
	}
	span := end.Sub(start)
	if span <= 0 {
		span = time.Second
	}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		w := int(int64(n) * int64(j.Start.Sub(start)) / int64(span))
		if w < 0 {
			w = 0
		}
		if w >= n {
			w = n - 1
		}
		out[w] = append(out[w], JobID(i))
	}
	return out
}

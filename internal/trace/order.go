package trace

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"
)

// startOrder returns the positions 0..n-1 ordered by (start, position) — the
// order a stable sort by start time produces — or nil when the jobs already
// are in that order, which costs one scan and no allocation. Instants compare
// by wall clock. Starts less than 2³³ s (272 years) apart take the radix sort;
// wider spans the comparison sort.
func startOrder(n int, start func(int) time.Time) []int32 {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = !start(i).Before(start(i - 1))
	}
	if sorted {
		return nil
	}
	lo, hi := start(0).Unix(), start(0).Unix()
	for i := 1; i < n; i++ {
		s := start(i).Unix()
		lo, hi = min(lo, s), max(hi, s)
	}
	if !radixSpan(lo, hi) {
		return compareStartOrder(n, start)
	}
	return radixStartOrder(n, lo, start)
}

const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixSpan reports whether starts from second lo to second hi are less than
// 2³³ s apart, so that every key (sec-lo)<<30 | nsec fits 63 bits.
func radixSpan(lo, hi int64) bool { return uint64(hi)-uint64(lo) < 1<<33 }

// radixStartOrder orders the positions by the keys (sec-lo)<<30 | nsec, where
// lo is the earliest start second and the span is one radixSpan admits, with
// a least-significant-digit radix sort. It makes one counting pass per
// 11-bit digit in which the keys differ, and none where they agree (the
// nanoseconds of second-resolution starts, the high bits of any span). Each pass
// is stable, and the positions start in order, so equal starts keep position
// order.
func radixStartOrder(n int, lo int64, start func(int) time.Time) []int32 {
	keys, pos := make([]uint64, 2*n), make([]int32, 2*n)
	src, dst := keys[:n], keys[n:]
	from, to := pos[:n], pos[n:]
	or, and := uint64(0), ^uint64(0)
	for i := range src {
		s := start(i)
		k := uint64(s.Unix()-lo)<<30 | uint64(s.Nanosecond())
		src[i], from[i] = k, int32(i)
		or, and = or|k, and&k
	}
	varying := or ^ and
	var count [1 << radixBits]int
	for shift := bits.TrailingZeros64(varying); shift < 64 && varying>>shift != 0; shift += radixBits {
		if varying>>shift&radixMask == 0 {
			continue
		}
		clear(count[:])
		for _, k := range src {
			count[k>>shift&radixMask]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for i, k := range src {
			d := k >> shift & radixMask
			dst[count[d]], to[count[d]] = k, from[i]
			count[d]++
		}
		src, dst, from, to = dst, src, to, from
	}
	return from
}

// compareStartOrder orders the positions by sorting 16-byte keys that carry
// the position, so the order is total and no stable (or reflective) sort is
// needed.
func compareStartOrder(n int, start func(int) time.Time) []int32 {
	type key struct {
		sec       int64
		nsec, pos int32
	}
	keys := make([]key, n)
	for i := range keys {
		s := start(i)
		keys[i] = key{s.Unix(), int32(s.Nanosecond()), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.sec, b.sec), cmp.Compare(a.nsec, b.nsec), cmp.Compare(a.pos, b.pos))
	})
	order := make([]int32, n)
	for i, k := range keys {
		order[i] = k.pos
	}
	return order
}

// SortJobsByStart orders Jobs by start time (stably) and renumbers their IDs
// densely. Call it after assembling a trace from unordered sources. Each job
// moves once, in place, along the cycles of the start-order permutation.
func (t *Trace) SortJobsByStart() {
	jobs := t.Jobs
	order := startOrder(len(jobs), func(i int) time.Time { return jobs[i].Start })
	for i := range order {
		first := jobs[i]
		for at := i; int(order[at]) != at; {
			from := int(order[at])
			order[at] = int32(at)
			if from == i {
				jobs[at] = first
				break
			}
			jobs[at], at = jobs[from], from
		}
	}
	for i := range jobs {
		jobs[i].ID = JobID(i)
	}
}

// run is one active job in MergeRequests: the time of its next request in
// nanoseconds from the merge's base instant, the step between requests, the
// job's position in the input (the tie-break) and the next file's index.
type run struct {
	key, step int64
	pos, k    int32
}

func (a run) before(b run) bool { return a.key < b.key || (a.key == b.key && a.pos < b.pos) }

// MergeRequests returns the time-ordered request stream of jobs, in whatever
// order they are given: the order a stable sort by time of their concatenated
// AppendRequests expansions gives — by time, ties by (position, index within
// the job).
//
// A job's requests are an arithmetic progression from Start with a
// non-negative step, so each job is a sorted run and the global order is a
// merge. Jobs are admitted in start order once nothing pending precedes their
// start; a binary heap holds only the jobs that have started and still have
// requests left, and its minimum is appended to the exact-size result. A job
// that ends before it starts (a descending run) or instants too far apart for
// a Duration send the whole input down the generic path: concatenate, then
// stable-sort.
func MergeRequests(jobs []Job) []Request {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	base := jobs[0].Start.Round(0) // wall clock only, as in startOrder
	total, mergeable := 0, true
	for i := 0; i < n; i++ {
		j := &jobs[i]
		total += len(j.Files)
		if j.End.Before(j.Start) || j.Start.Sub(base) == math.MinInt64 || j.End.Sub(base) == math.MaxInt64 {
			mergeable = false
		}
	}
	out := make([]Request, 0, total)
	if !mergeable {
		for i := 0; i < n; i++ {
			out = AppendRequests(out, &jobs[i])
		}
		slices.SortStableFunc(out, func(a, b Request) int { return a.Time.Compare(b.Time) })
		return out
	}
	order := startOrder(n, func(i int) time.Time { return jobs[i].Start })
	var heap []run
	for next := 0; next <= n; next++ {
		// Everything pending strictly before the next job's start goes out
		// first; once every job is in, the rest drains.
		var admit *Job
		pos, limit := next, int64(math.MaxInt64)
		if next < n {
			if order != nil {
				pos = int(order[next])
			}
			admit = &jobs[pos]
			limit = int64(admit.Start.Sub(base))
		}
		for len(heap) > 0 && heap[0].key < limit {
			h := &heap[0]
			j := &jobs[h.pos]
			// Start.Add(k*step) is the value AppendRequests reaches in k Adds.
			out = append(out, Request{Time: j.Start.Add(time.Duration(int64(h.k) * h.step)), Job: j.ID, File: j.Files[h.k]})
			h.key += h.step
			if h.k++; int(h.k) == len(j.Files) {
				*h = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			for i := 0; ; { // sift the changed root down
				c := 2*i + 1
				if c+1 < len(heap) && heap[c+1].before(heap[c]) {
					c++
				}
				if c >= len(heap) || !heap[c].before(heap[i]) {
					break
				}
				heap[i], heap[c] = heap[c], heap[i]
				i = c
			}
		}
		if admit != nil && len(admit.Files) > 0 {
			step := int64(admit.End.Sub(admit.Start)) / int64(len(admit.Files))
			heap = append(heap, run{key: limit, step: step, pos: int32(pos)})
			for i := len(heap) - 1; i > 0 && heap[i].before(heap[(i-1)/2]); i = (i - 1) / 2 {
				heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
			}
		}
	}
	return out
}

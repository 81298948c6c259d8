package trace

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// startOrder returns the positions 0..n-1 ordered by (start, position) — the
// order a stable sort by start time produces — or nil when the jobs already
// are in that order, which costs one scan and no allocation. It sorts 16-byte
// keys that carry the position, so the order is total and no stable (or
// reflective) sort is needed. Instants compare by wall clock.
func startOrder(n int, start func(int) time.Time) []int32 {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = !start(i).Before(start(i - 1))
	}
	if sorted {
		return nil
	}
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

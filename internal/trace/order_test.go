package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The reference ordering: the reflective stable sorts SortJobsByStart,
// Requests and MergeRequests were before they became a key sort and a merge.

func referenceSortJobs(jobs []Job) {
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Start.Before(jobs[b].Start) })
	for i := range jobs {
		jobs[i].ID = JobID(i)
	}
}

func referenceRequests(jobs []Job) []Request {
	var out []Request
	for i := range jobs {
		out = AppendRequests(out, &jobs[i])
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	return out
}

// orderCaseJobs decodes five bytes a job into the shapes the merge must get
// right: starts drawn from a few seconds with nanosecond offsets (ties and
// near-ties, in any order), zero durations (every request at Start),
// durations shorter than the file count (step 0 after division), empty jobs,
// jobs that end before they start and instants centuries apart (both the
// generic path).
func orderCaseJobs(data []byte) []Job {
	t0 := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	var jobs []Job
	var nextFile FileID
	for ; len(data) >= 5; data = data[5:] {
		b := data[:5]
		j := Job{ID: JobID(len(jobs))}
		j.Start = t0.Add(time.Duration(b[0]&0x1f)*time.Second + time.Duration(b[1]&3))
		d := time.Duration(b[3])
		switch b[2] % 16 {
		case 0, 1:
			d = 0
		case 2, 3: // d nanoseconds: sub-nanosecond steps once there are more files
		case 4, 5, 6:
			d *= time.Second
		case 7, 8:
			d *= time.Minute
		case 9, 10:
			d = d*time.Millisecond + 1
		case 11, 12:
			d *= 7 * time.Hour
		case 13:
			d = time.Duration(b[3]&3) * time.Second // many equal runs
		case 14:
			j.Start = time.Time{}.Add(d) // year 1: too far from t0 for a Duration
		case 15:
			d = -d * time.Second
		}
		j.End = j.Start.Add(d)
		for k := 0; k < int(b[4]%8); k++ {
			j.Files = append(j.Files, nextFile)
			nextFile++
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func diffRequests(t *testing.T, name string, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, reference has %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d is %+v, reference has %+v", name, i, got[i], want[i])
		}
	}
}

// checkOrdering holds every user of the ordering primitive to the reference
// on one job list.
func checkOrdering(t *testing.T, jobs []Job) {
	t.Helper()
	tr := &Trace{Jobs: jobs}
	diffRequests(t, "Requests", tr.Requests(), referenceRequests(jobs))

	// A subset in an order of its own, with repeated IDs.
	var picked []Job
	for i := 0; len(jobs) > 0 && i < len(jobs)+3; i++ {
		id := JobID((i*7 + 3) % len(jobs))
		picked = append(picked, jobs[id])
	}
	diffRequests(t, "MergeRequests", MergeRequests(picked), referenceRequests(picked))

	want := slices.Clone(jobs)
	referenceSortJobs(want)
	if len(jobs) >= 2 {
		history, future := tr.SplitByTime(0.5)
		cut := len(history.Jobs)
		for i, j := range append(slices.Clone(history.Jobs), future.Jobs...) {
			if w := want[i]; !j.Start.Equal(w.Start) || !slices.Equal(j.Files, w.Files) {
				t.Fatalf("SplitByTime: job %d (cut %d) is not the reference's", i, cut)
			}
		}
	}
	got := &Trace{Jobs: slices.Clone(jobs)}
	got.SortJobsByStart()
	for i := range want {
		g, w := got.Jobs[i], want[i]
		if g.ID != w.ID || g.Start != w.Start || g.End != w.End || !slices.Equal(g.Files, w.Files) {
			t.Fatalf("SortJobsByStart: job %d is %+v, reference has %+v", i, g, w)
		}
	}
	// Sorted input is the one-scan path; the merge over it must still agree.
	diffRequests(t, "Requests(sorted)", got.Requests(), referenceRequests(want))
}

func TestOrderingMatchesStableSort(t *testing.T) {
	checkOrdering(t, nil)
	checkOrdering(t, []Job{{}})
	r := rand.New(rand.NewSource(18))
	for round := 0; round < 400; round++ {
		data := make([]byte, 5*(1+r.Intn(60)))
		r.Read(data)
		if round%2 == 0 {
			// No generic-path jobs: every one of these goes through the merge.
			for i := 2; i < len(data); i += 5 {
				data[i] %= 14
			}
		}
		checkOrdering(t, orderCaseJobs(data))
	}
}

func FuzzRequestOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 10, 3, 0, 0, 4, 10, 3})              // equal starts, equal steps
	f.Add([]byte{9, 1, 0, 0, 5, 3, 0, 2, 2, 7, 3, 0, 7, 1, 0}) // out of order, step 0, empty
	f.Add([]byte{1, 0, 15, 9, 4, 0, 0, 4, 9, 4})               // End < Start beside a normal job
	f.Add([]byte{1, 0, 14, 9, 2, 1, 0, 11, 200, 7})            // year 1 beside 2003
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*512 {
			data = data[:5*512]
		}
		checkOrdering(t, orderCaseJobs(data))
	})
}

// TestRadixOrderMatchesComparison is the differential between the two ways
// startOrder orders starts: the radix sort, on every list whose span admits
// it, must give the comparison sort's order, ties in position order; startOrder
// itself must give it on every list.
func TestRadixOrderMatchesComparison(t *testing.T) {
	check := func(name string, starts []time.Time) {
		t.Helper()
		n := len(starts)
		at := func(i int) time.Time { return starts[i] }
		want := compareStartOrder(n, at)
		got := startOrder(n, at)
		if got == nil { // already in order
			got = make([]int32, n)
			for i := range got {
				got[i] = int32(i)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: startOrder = %v, comparison sort %v", name, got, want)
		}
		if n == 0 {
			return
		}
		lo, hi := starts[0].Unix(), starts[0].Unix()
		for _, s := range starts {
			lo, hi = min(lo, s.Unix()), max(hi, s.Unix())
		}
		if radixSpan(lo, hi) {
			if r := radixStartOrder(n, lo, at); !slices.Equal(r, want) {
				t.Errorf("%s: radix order = %v, comparison sort %v", name, r, want)
			}
		}
	}
	check("no starts", nil)
	check("one start", []time.Time{time.Unix(7, 0)})

	r := rand.New(rand.NewSource(33))
	random := func(n int, at func() time.Time) []time.Time {
		s := make([]time.Time, n)
		for i := range s {
			s[i] = at()
		}
		return s
	}
	for round := 0; round < 50; round++ {
		n := 2 + r.Intn(300)
		check("ties", random(n, func() time.Time { return time.Unix(1e9+r.Int63n(4), 0) }))
		check("sub-second", random(n, func() time.Time { return time.Unix(1e9+r.Int63n(3), r.Int63n(1e9)) }))
		check("pre-1970", random(n, func() time.Time { return time.Unix(r.Int63n(2e4)-1e4, r.Int63n(1e9)) }))
		check("year-long, whole seconds", random(n, func() time.Time { return time.Unix(1e9+r.Int63n(365*86400), 0) }))
	}

	// The widest span the radix sort takes, 2³³-1 s and nearly a second more
	// from the earliest start to the latest, and the narrowest it does not.
	const span = int64(1) << 33
	for _, lo := range []int64{-1 << 40, -span / 2, 0, 1e9} {
		edge := []time.Time{time.Unix(lo+span-1, 999_999_999), time.Unix(lo, 0), time.Unix(lo+span-1, 0),
			time.Unix(lo, 1), time.Unix(lo, 0), time.Unix(lo+span/2, 5)}
		check(fmt.Sprintf("span 2^33-1 s from %d", lo), edge)
		if !radixSpan(lo, lo+span-1) || radixSpan(lo, lo+span) {
			t.Errorf("from %d: radixSpan admits a span of 2^33 s or refuses one of 2^33-1 s", lo)
		}
		check(fmt.Sprintf("span 2^33 s from %d", lo), append(edge, time.Unix(lo+span, 0), time.Unix(lo+span/3, 0)))
	}
	if radixSpan(math.MinInt64, math.MaxInt64) {
		t.Error("radixSpan admits the whole int64 range")
	}
}

// TestRequestsAllocatesItsResult: the merge writes into one exact-size slice;
// beside it there is only the start order (when the jobs are unsorted) and a
// heap of the jobs active at one time.
func TestRequestsAllocatesItsResult(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	t0 := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := &Trace{Jobs: make([]Job, 3000)}
	for i := range tr.Jobs {
		start := t0.Add(time.Duration(r.Int63n(int64(30 * 24 * time.Hour))))
		tr.Jobs[i] = Job{ID: JobID(i), Start: start, End: start.Add(time.Duration(1+r.Intn(20)) * time.Hour),
			Files: make([]FileID, 50+r.Intn(100))}
	}
	for _, sorted := range []bool{false, true} {
		if sorted {
			tr.SortJobsByStart()
		}
		var reqs []Request
		got := allocatedBy(func() { reqs = tr.Requests() })
		kept := uint64(len(reqs)) * uint64(unsafe.Sizeof(Request{}))
		if len(reqs) != tr.NumRequests() || cap(reqs) != len(reqs) {
			t.Fatalf("sorted=%v: %d requests in capacity %d, want %d exactly", sorted, len(reqs), cap(reqs), tr.NumRequests())
		}
		if float64(got) > 1.15*float64(kept) {
			t.Errorf("sorted=%v: Requests allocated %d bytes to return %d (%.3fx, want <= 1.15x)",
				sorted, got, kept, float64(got)/float64(kept))
		}
	}
}

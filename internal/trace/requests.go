package trace

import "time"

// Request is a single file access: job j touched file f at time t. Requests
// are the unit the cache simulator and the interval analyses replay.
type Request struct {
	Time time.Time
	Job  JobID
	File FileID
}

// Requests flattens the trace into a time-ordered request stream. Within a
// job, file accesses are spread uniformly across the job's duration in the
// order they appear in Job.Files — DZero jobs unpack files event by event
// (Section 3 of the paper notes there is no random access), so sequential
// access over the run is the faithful model. Ties are broken by (job, index)
// so the stream is deterministic.
func (t *Trace) Requests() []Request { return MergeRequests(t.Jobs) }

// AppendRequests appends one Request per input file of j to dst, spaced
// uniformly over [Start, End). It defines a job's run; MergeRequests
// interleaves the runs of many jobs.
func AppendRequests(dst []Request, j *Job) []Request {
	n := len(j.Files)
	if n == 0 {
		return dst
	}
	dur := j.End.Sub(j.Start)
	step := dur / time.Duration(n)
	at := j.Start
	for _, f := range j.Files {
		dst = append(dst, Request{Time: at, Job: j.ID, File: f})
		at = at.Add(step)
	}
	return dst
}

// DailyActivity is the per-day aggregate behind Figure 2 of the paper: how
// many jobs started and how many file requests were issued on each day.
type DailyActivity struct {
	Day      time.Time // midnight UTC of the day
	Jobs     int
	Requests int
}

// Daily buckets job starts and file requests by UTC day, returning one entry
// per day between the first and last active day inclusive (inactive days
// appear with zero counts so plots have a contiguous x-axis).
func (t *Trace) Daily() []DailyActivity {
	if len(t.Jobs) == 0 {
		return nil
	}
	day := func(ts time.Time) time.Time {
		return ts.UTC().Truncate(24 * time.Hour)
	}
	jobs := make(map[time.Time]int)
	reqs := make(map[time.Time]int)
	first, last := day(t.Jobs[0].Start), day(t.Jobs[0].Start)
	for i := range t.Jobs {
		j := &t.Jobs[i]
		d := day(j.Start)
		jobs[d]++
		reqs[d] += len(j.Files)
		if d.Before(first) {
			first = d
		}
		if d.After(last) {
			last = d
		}
	}
	var out []DailyActivity
	for d := first; !d.After(last); d = d.Add(24 * time.Hour) {
		out = append(out, DailyActivity{Day: d, Jobs: jobs[d], Requests: reqs[d]})
	}
	return out
}

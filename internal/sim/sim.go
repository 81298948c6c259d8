// Package sim is a minimal discrete-event simulation kernel used by the
// grid substrate: an event calendar ordered by virtual time with
// deterministic FIFO tie-breaking.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Kernel is an event calendar with a virtual clock. The zero value is not
// usable; construct with New.
type Kernel struct {
	now   time.Time
	queue eventHeap
	seq   uint64
	inRun bool
}

// New returns a kernel whose clock starts at the given time.
func New(start time.Time) *Kernel {
	return &Kernel{now: start}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// At schedules fn to run at time t. Scheduling in the past (before Now)
// panics: it would silently reorder causality.
func (k *Kernel) At(t time.Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t.Before(k.now) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	k.seq++
	heap.Push(&k.queue, &event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now.Add(d), fn)
}

// Run executes events in time order until the calendar is empty, returning
// the number of events processed. Run is not reentrant.
func (k *Kernel) Run() int {
	if k.inRun {
		panic("sim: Run is not reentrant")
	}
	k.inRun = true
	defer func() { k.inRun = false }()
	n := 0
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*event)
		k.now = e.at
		e.fn()
		n++
	}
	return n
}

type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

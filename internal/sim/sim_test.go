package sim

import (
	"testing"
	"time"
)

var t0 = time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New(t0)
	var order []int
	k.At(t0.Add(3*time.Second), func() { order = append(order, 3) })
	k.At(t0.Add(1*time.Second), func() { order = append(order, 1) })
	k.At(t0.Add(2*time.Second), func() { order = append(order, 2) })
	if n := k.Run(); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if !k.Now().Equal(t0.Add(3 * time.Second)) {
		t.Errorf("Now = %v", k.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	k := New(t0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(t0.Add(time.Second), func() { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break order = %v, want FIFO", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := New(t0)
	hits := 0
	var chain func()
	chain = func() {
		hits++
		if hits < 4 {
			k.After(time.Second, chain)
		}
	}
	k.After(time.Second, chain)
	k.Run()
	if hits != 4 {
		t.Errorf("chain ran %d times, want 4", hits)
	}
	if got := k.Now(); !got.Equal(t0.Add(4 * time.Second)) {
		t.Errorf("Now = %v, want t0+4s", got)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := []func(){
		func() { New(t0).At(t0.Add(-time.Second), func() {}) },
		func() { New(t0).After(-time.Second, func() {}) },
		func() { New(t0).At(t0, nil) },
		func() {
			k := New(t0)
			k.After(0, func() { k.Run() }) // reentrant
			k.Run()
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

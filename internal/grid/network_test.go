package grid

import (
	"math"
	"testing"
	"time"

	"filecule/internal/sim"
)

var inf = math.Inf(1)

func TestNetworkSingleFlow(t *testing.T) {
	for _, c := range []struct {
		name          string
		srcUp, dstDwn float64
		bytes         int64
		want          time.Duration
	}{
		{"downlink is the bottleneck", 100, 50, 500, 10 * time.Second},
		{"uplink is the bottleneck", 25, 1000, 500, 20 * time.Second},
	} {
		k := sim.New(t0)
		n := NewNetwork(k)
		src := n.NewEndpoint(c.srcUp, 1000)
		dst := n.NewEndpoint(1000, c.dstDwn)
		var doneAt time.Time
		n.Start(src, dst, c.bytes, func(*Flow) { doneAt = k.Now() })
		k.Run()
		if want := t0.Add(c.want); doneAt.Sub(want).Abs() > time.Millisecond {
			t.Errorf("%s: flow done at %v, want ~%v", c.name, doneAt, want)
		}
	}
}

func TestNetworkUnboundedSourceFlow(t *testing.T) {
	// Out of an unbounded source the sink's downlink is the only
	// bottleneck: 1000 B at 100 B/s take 10s.
	k := sim.New(t0)
	n := NewNetwork(k)
	var doneAt time.Time
	n.Start(n.NewEndpoint(inf, inf), n.NewEndpoint(100, 100), 1000, func(*Flow) { doneAt = k.Now() })
	k.Run()
	if want := t0.Add(10 * time.Second); doneAt.Sub(want).Abs() > time.Millisecond {
		t.Errorf("flow done at %v, want ~%v", doneAt, want)
	}
}

func TestNetworkSinkSharing(t *testing.T) {
	// Two equal flows out of an unbounded source into one 100 B/s
	// downlink: each gets 50 B/s, so both take 20s.
	k := sim.New(t0)
	n := NewNetwork(k)
	src, dst := n.NewEndpoint(inf, inf), n.NewEndpoint(100, 100)
	var done []time.Time
	n.Start(src, dst, 1000, func(*Flow) { done = append(done, k.Now()) })
	n.Start(src, dst, 1000, func(*Flow) { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatalf("%d flows completed", len(done))
	}
	for _, d := range done {
		if d.Sub(t0.Add(20*time.Second)).Abs() > 10*time.Millisecond {
			t.Errorf("completion at %v, want ~t0+20s (shared downlink)", d)
		}
	}
}

func TestNetworkLateArrivalSlowsFirst(t *testing.T) {
	// Into a 100 B/s downlink: F1 (1000B) runs alone for 5s (500B done),
	// then F2 (250B) arrives and both run at 50 B/s. F2 finishes at t=10s
	// with F1 250B short, which it moves at 100 B/s by t=12.5s.
	k := sim.New(t0)
	n := NewNetwork(k)
	src, dst := n.NewEndpoint(inf, inf), n.NewEndpoint(100, 100)
	var f1Done, f2Done time.Time
	n.Start(src, dst, 1000, func(*Flow) { f1Done = k.Now() })
	k.At(t0.Add(5*time.Second), func() {
		n.Start(src, dst, 250, func(*Flow) { f2Done = k.Now() })
	})
	k.Run()
	if f2Done.Sub(t0.Add(10*time.Second)).Abs() > 50*time.Millisecond {
		t.Errorf("f2 done at %v, want ~t0+10s", f2Done)
	}
	if f1Done.Sub(t0.Add(12500*time.Millisecond)).Abs() > 50*time.Millisecond {
		t.Errorf("f1 done at %v, want ~t0+12.5s", f1Done)
	}
}

func TestNetworkZeroByteFlow(t *testing.T) {
	k := sim.New(t0)
	n := NewNetwork(k)
	ran := false
	n.Start(n.NewEndpoint(inf, inf), n.NewEndpoint(10, 10), 0, func(*Flow) { ran = true })
	if !ran {
		t.Error("zero-byte flow did not complete inline")
	}
	if n.InFlight() != 0 {
		t.Error("zero-byte flow left residue")
	}
}

func TestNetworkSourceSharing(t *testing.T) {
	// One source (100 B/s up) serving two sinks with fat downlinks: each
	// flow gets 50 B/s.
	k := sim.New(t0)
	n := NewNetwork(k)
	src := n.NewEndpoint(100, 100)
	d1 := n.NewEndpoint(100, 1000)
	d2 := n.NewEndpoint(100, 1000)
	var done []time.Time
	n.Start(src, d1, 500, func(*Flow) { done = append(done, k.Now()) })
	n.Start(src, d2, 500, func(*Flow) { done = append(done, k.Now()) })
	k.Run()
	for _, d := range done {
		if d.Sub(t0.Add(10*time.Second)).Abs() > 100*time.Millisecond {
			t.Errorf("completion at %v, want ~t0+10s (shared uplink)", d)
		}
	}
}

func TestNetworkIndependentSourcesDontShare(t *testing.T) {
	// Two sources to one sink with a fat downlink: no contention.
	k := sim.New(t0)
	n := NewNetwork(k)
	s1 := n.NewEndpoint(100, 100)
	s2 := n.NewEndpoint(100, 100)
	dst := n.NewEndpoint(100, 10000)
	var done []time.Time
	n.Start(s1, dst, 500, func(*Flow) { done = append(done, k.Now()) })
	n.Start(s2, dst, 500, func(*Flow) { done = append(done, k.Now()) })
	k.Run()
	for _, d := range done {
		if d.Sub(t0.Add(5*time.Second)).Abs() > 100*time.Millisecond {
			t.Errorf("completion at %v, want ~t0+5s (full uplink each)", d)
		}
	}
	if n.InFlight() != 0 {
		t.Error("flows left over")
	}
}

func TestNetworkPanics(t *testing.T) {
	k := sim.New(t0)
	n := NewNetwork(k)
	ep := n.NewEndpoint(1, 1)
	for i, f := range []func(){
		func() { n.NewEndpoint(0, 1) },
		func() { n.NewEndpoint(1, -1) },
		func() { n.Start(ep, ep, 1, nil) },
		func() { n.Start(ep, nil, 1, nil) },
		func() { n.Start(ep, n.NewEndpoint(1, 1), -1, nil) },
	} {
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

func TestNetworkUnboundedSourcePanics(t *testing.T) {
	k := sim.New(t0)
	n := NewNetwork(k)
	src := n.NewEndpoint(inf, inf)
	for i, f := range []func(){
		func() { n.NewEndpoint(1, 0) },
		func() { n.NewEndpoint(math.NaN(), 1) },
		func() { n.NewEndpoint(1, math.NaN()) },
		func() { n.Start(src, n.NewEndpoint(10, 10), -1, nil) },
		func() { n.Start(n.NewEndpoint(inf, 1), n.NewEndpoint(1, inf), 1, nil) },
	} {
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

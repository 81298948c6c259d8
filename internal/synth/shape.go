package synth

import (
	"fmt"
	"math"
	"time"

	"filecule/internal/trace"
)

// RPS shaping re-times a job stream to follow a load profile — the ramp,
// sweep and burst modes of serverless trace synthesizers (vhive invitro).
// Shaping never changes which jobs exist, their order, their file lists or
// their durations; it only rewrites arrival times, so filecule partitions
// (order-blind) are untouched while anything time-sensitive — cache
// interleaving, loadgen pacing, dynamics analyses — sees the shaped load.

// ShapeMode selects the RPS profile.
type ShapeMode uint8

// Shaping modes.
const (
	// ShapeNone leaves arrival times untouched.
	ShapeNone ShapeMode = iota
	// ShapeRamp moves the rate from StartRPS toward TargetRPS by StepRPS
	// per slot and holds at TargetRPS.
	ShapeRamp
	// ShapeSweep bounces the rate between StartRPS and TargetRPS by
	// StepRPS per slot (a triangle wave).
	ShapeSweep
	// ShapeBurst alternates slots at StartRPS (baseline) and TargetRPS
	// (burst).
	ShapeBurst
)

// String returns the mode name accepted by ParseShapeMode.
func (m ShapeMode) String() string {
	switch m {
	case ShapeRamp:
		return "ramp"
	case ShapeSweep:
		return "sweep"
	case ShapeBurst:
		return "burst"
	default:
		return "none"
	}
}

// ParseShapeMode converts a mode name to a ShapeMode.
func ParseShapeMode(s string) (ShapeMode, error) {
	switch s {
	case "", "none":
		return ShapeNone, nil
	case "ramp":
		return ShapeRamp, nil
	case "sweep":
		return ShapeSweep, nil
	case "burst":
		return ShapeBurst, nil
	default:
		return ShapeNone, fmt.Errorf("synth: unknown shape mode %q (have none, ramp, sweep, burst)", s)
	}
}

// Shape is an RPS schedule: time is divided into fixed Slot windows, each
// with a jobs-per-second rate determined by Mode. The zero value (ShapeNone)
// is a no-op.
type Shape struct {
	Mode ShapeMode
	// StartRPS is the first slot's rate (and the baseline rate for burst).
	StartRPS float64
	// TargetRPS is the rate ramped toward (ramp), bounced against (sweep),
	// or burst to (burst).
	TargetRPS float64
	// StepRPS is the per-slot rate change for ramp and sweep; burst
	// ignores it.
	StepRPS float64
	// Slot is each rate window's duration.
	Slot time.Duration
}

// Validate checks the schedule. A ShapeNone schedule is always valid.
func (sh Shape) Validate() error {
	if sh.Mode == ShapeNone {
		return nil
	}
	if sh.StartRPS <= 0 || math.IsNaN(sh.StartRPS) || math.IsInf(sh.StartRPS, 0) {
		return fmt.Errorf("synth: shape rps-start %v must be > 0 and finite", sh.StartRPS)
	}
	if sh.TargetRPS <= 0 || math.IsNaN(sh.TargetRPS) || math.IsInf(sh.TargetRPS, 0) {
		return fmt.Errorf("synth: shape rps-target %v must be > 0 and finite", sh.TargetRPS)
	}
	if sh.Slot <= 0 {
		return fmt.Errorf("synth: shape slot %v must be > 0", sh.Slot)
	}
	if sh.Mode == ShapeRamp || sh.Mode == ShapeSweep {
		if sh.StepRPS <= 0 || math.IsNaN(sh.StepRPS) || math.IsInf(sh.StepRPS, 0) {
			return fmt.Errorf("synth: shape rps-step %v must be > 0 and finite for %s mode", sh.StepRPS, sh.Mode)
		}
	}
	return nil
}

// rate returns the schedule's jobs-per-second rate during slot k.
func (sh Shape) rate(k int64) float64 {
	switch sh.Mode {
	case ShapeRamp:
		d := sh.TargetRPS - sh.StartRPS
		if d == 0 {
			return sh.StartRPS
		}
		r := sh.StartRPS + math.Copysign(sh.StepRPS*float64(k), d)
		if (d > 0 && r > sh.TargetRPS) || (d < 0 && r < sh.TargetRPS) {
			return sh.TargetRPS
		}
		return r
	case ShapeSweep:
		lo, hi := sh.StartRPS, sh.TargetRPS
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		if span == 0 {
			return sh.StartRPS
		}
		steps := int64(math.Ceil(span / sh.StepRPS))
		pos := k % (2 * steps)
		if pos > steps {
			pos = 2*steps - pos
		}
		r := sh.StartRPS
		if sh.StartRPS <= sh.TargetRPS {
			r = sh.StartRPS + sh.StepRPS*float64(pos)
		} else {
			r = sh.StartRPS - sh.StepRPS*float64(pos)
		}
		if r > hi {
			r = hi
		}
		if r < lo {
			r = lo
		}
		return r
	case ShapeBurst:
		if k%2 == 1 {
			return sh.TargetRPS
		}
		return sh.StartRPS
	default:
		return 0
	}
}

// Pacer walks a Shape's arrival schedule one job at a time: the k'th call to
// Next returns the k'th job's offset from the schedule epoch. It is the
// deterministic arithmetic shared by Reshape (which rewrites trace times)
// and server.LoadGen (which sleeps until each offset before sending).
// A Pacer is not safe for concurrent use.
type Pacer struct {
	sh     Shape
	cursor time.Duration
}

// NewPacer returns a pacer over a validated schedule. The first Next returns
// offset 0.
func NewPacer(sh Shape) *Pacer { return &Pacer{sh: sh} }

// Next returns the next job's offset from the epoch and advances the
// schedule. For ShapeNone every offset is 0.
func (p *Pacer) Next() time.Duration {
	if p.sh.Mode == ShapeNone {
		return 0
	}
	off := p.cursor
	slot := int64(p.cursor / p.sh.Slot)
	r := p.sh.rate(slot)
	p.cursor += time.Duration(float64(time.Second) / r)
	return off
}

// Reshape wraps src so every job's Start is rewritten to epoch plus the
// schedule offset of its position in the stream, preserving order, duration
// and everything else. With ShapeNone it returns src unchanged. Shaped
// streams are emitted in nondecreasing start order by construction.
func Reshape(src trace.Source, sh Shape, epoch time.Time) (trace.Source, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	if sh.Mode == ShapeNone {
		return src, nil
	}
	return &shapedSource{src: src, p: NewPacer(sh), epoch: epoch}, nil
}

type shapedSource struct {
	src   trace.Source
	p     *Pacer
	epoch time.Time
	job   trace.Job
}

func (s *shapedSource) Files() []trace.File { return s.src.Files() }
func (s *shapedSource) Users() []trace.User { return s.src.Users() }
func (s *shapedSource) Sites() []trace.Site { return s.src.Sites() }
func (s *shapedSource) Close() error        { return s.src.Close() }

func (s *shapedSource) Next() (*trace.Job, error) {
	j, err := s.src.Next()
	if err != nil {
		return nil, err
	}
	// Shallow copy: Files/Outputs stay aliased to the inner source's
	// buffers, which is fine because both are invalidated together by the
	// following Next.
	s.job = *j
	d := j.End.Sub(j.Start)
	s.job.Start = s.epoch.Add(s.p.Next())
	s.job.End = s.job.Start.Add(d)
	return &s.job, nil
}

// Link shaping and the 5G/mmWave time-varying link models.
//
// The thesis's WaveLAN-era experiments vary one knob at a time
// (bandwidth or a loss model, both directions at once). mmWave-style
// links need more: capacity, delay, jitter, and loss all swing
// together, per direction, on ~100ms blockage timescales. Shaping is
// the explicit per-direction mutation record; TraceProfile replays a
// committed (time, shaping) segment list, so an experiment's link
// dynamics are part of its reproducible input.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Direction selects which direction(s) of a duplex link an operation
// applies to, in Connect order: DirAB shapes a→b traffic.
type Direction uint8

const (
	DirAB   Direction = 1 << iota // a → b
	DirBA                         // b → a
	DirBoth = DirAB | DirBA
)

// ShapeField names the link parameters a Shaping carries. Only fields
// named in Shaping.Fields are applied, so every value — including
// zero — is explicit: there is no zero-means-keep or zero-means-default
// ambiguity (the sharp edge of the old SetBandwidth mutator, where 0
// was silently ignored).
type ShapeField uint8

const (
	ShapeBandwidth ShapeField = 1 << iota
	ShapeDelay
	ShapeJitter
	ShapeLoss

	ShapeAll = ShapeBandwidth | ShapeDelay | ShapeJitter | ShapeLoss
)

// Shaping is one explicit retune of a link direction. Bandwidth 0
// (with ShapeBandwidth set) means no capacity — the direction stays up
// and routable but carries nothing, counted as ZeroCapDrops. Loss nil
// (with ShapeLoss set) means lossless.
type Shaping struct {
	Fields    ShapeField
	Bandwidth int64 // bits per second; 0 = no capacity
	Delay     time.Duration
	Jitter    time.Duration
	Loss      LossModel // nil = NoLoss
}

// String renders only the set fields, for transition logs and events.
func (s Shaping) String() string {
	out := ""
	app := func(f string, args ...any) {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf(f, args...)
	}
	if s.Fields&ShapeBandwidth != 0 {
		app("bw=%d", s.Bandwidth)
	}
	if s.Fields&ShapeDelay != 0 {
		app("delay=%v", s.Delay)
	}
	if s.Fields&ShapeJitter != 0 {
		app("jitter=%v", s.Jitter)
	}
	if s.Fields&ShapeLoss != 0 {
		if s.Loss == nil {
			app("loss=none")
		} else {
			app("loss=%T", s.Loss)
		}
	}
	if out == "" {
		return "unchanged"
	}
	return out
}

// apply folds the set fields of s into the direction's config.
func (d *direction) apply(s Shaping) {
	if s.Fields&ShapeBandwidth != 0 {
		d.cfg.Bandwidth = s.Bandwidth
	}
	if s.Fields&ShapeDelay != 0 {
		d.cfg.Delay = s.Delay
	}
	if s.Fields&ShapeJitter != 0 {
		d.cfg.Jitter = s.Jitter
	}
	if s.Fields&ShapeLoss != 0 {
		if s.Loss == nil {
			d.cfg.Loss = NoLoss{}
		} else {
			d.cfg.Loss = s.Loss
		}
	}
}

// shaping captures the direction's current tuning with all fields set.
func (d *direction) shaping() Shaping {
	return Shaping{
		Fields:    ShapeAll,
		Bandwidth: d.cfg.Bandwidth,
		Delay:     d.cfg.Delay,
		Jitter:    d.cfg.Jitter,
		Loss:      d.cfg.Loss,
	}
}

// Transition is one entry of a trace player's log: at virtual time At
// the player applied Shape, the shaping of profile segment Seg, to its
// direction.
type Transition struct {
	At    sim.Time
	Seg   int
	Shape Shaping
}

// String renders the transition for determinism diffs.
func (t Transition) String() string {
	return fmt.Sprintf("%v seg=%d %v", time.Duration(t.At), t.Seg, t.Shape)
}

// TraceSegment is one segment of a replayable link trace: the shaping
// holds for Dur, then the next segment starts.
type TraceSegment struct {
	Dur   time.Duration
	Shape Shaping
}

// TraceProfile is a committed (time, bandwidth, delay, loss) trace —
// the reproducible link dynamics of a scenario. Replay applies each
// segment's shaping at exact virtual-time boundaries.
type TraceProfile struct {
	Name     string
	Segments []TraceSegment
}

// Duration is the total virtual time of one pass over the trace.
func (p TraceProfile) Duration() time.Duration {
	var d time.Duration
	for _, seg := range p.Segments {
		d += seg.Dur
	}
	return d
}

// TracePlayer is a running trace replay.
type TracePlayer struct {
	sched   *sim.Scheduler
	link    *Link
	dir     Direction
	profile TraceProfile
	loop    bool
	log     []Transition
	timer   sim.Timer
	done    bool
}

// Replay starts replaying the profile on l: segment 0's shaping is
// applied immediately, each later segment at its cumulative boundary.
// With loop, the trace restarts after its last segment; otherwise the
// player stops there, leaving the final segment's shaping in place.
func (p TraceProfile) Replay(s *sim.Scheduler, l *Link, dir Direction, loop bool) *TracePlayer {
	if dir == 0 {
		panic("netsim: Replay needs an explicit Direction")
	}
	if len(p.Segments) == 0 {
		panic("netsim: Replay of an empty TraceProfile")
	}
	tp := &TracePlayer{sched: s, link: l, dir: dir, profile: p, loop: loop}
	tp.enter(0)
	return tp
}

// enter applies segment i and schedules the next boundary.
func (tp *TracePlayer) enter(i int) {
	if tp.done {
		return
	}
	seg := tp.profile.Segments[i]
	tp.link.Shape(tp.dir, seg.Shape)
	tp.log = append(tp.log, Transition{At: tp.sched.Now(), Seg: i, Shape: seg.Shape})
	if bus := tp.link.net.obs; bus.Enabled() {
		bus.Emit("netsim", "trace-segment", tp.profile.Name,
			obs.F("seg", i), obs.F("dur_ms", int(seg.Dur/time.Millisecond)))
	}
	next := i + 1
	if next >= len(tp.profile.Segments) {
		if !tp.loop {
			tp.timer = tp.sched.After(seg.Dur, func() { tp.done = true })
			return
		}
		next = 0
	}
	tp.timer = tp.sched.After(seg.Dur, func() { tp.enter(next) })
}

// Done reports whether a non-looping replay has passed its last
// boundary.
func (tp *TracePlayer) Done() bool { return tp.done }

// Transitions returns a copy of the replay log.
func (tp *TracePlayer) Transitions() []Transition {
	out := make([]Transition, len(tp.log))
	copy(out, tp.log)
	return out
}

// Stop halts the replay, leaving the current segment's shaping in
// place.
func (tp *TracePlayer) Stop() {
	tp.done = true
	tp.timer.Stop()
}

// Link shaping and the 5G/mmWave time-varying link models.
//
// The thesis's WaveLAN-era experiments vary one knob at a time
// (bandwidth or a loss model, both directions at once). mmWave-style
// links need more: capacity, delay, jitter, and loss all swing
// together, per direction, on ~100ms blockage timescales. Shaping is
// the explicit per-direction mutation record; Blockage is a
// scheduler-driven two-state LoS/NLoS process with seeded dwell times;
// TraceProfile replays a committed (time, shaping) segment list so an
// experiment's link dynamics are part of its reproducible input.
package netsim

import (
	"fmt"
	"math/rand"
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

func (d Direction) String() string {
	switch d {
	case DirAB:
		return "ab"
	case DirBA:
		return "ba"
	case DirBoth:
		return "both"
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

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

// Transition is one entry of a link model's transition log: at virtual
// time At the model applied Shape to its direction. NLoS marks the
// blocked state of a Blockage model; for a trace player it is false
// and Seg indexes the profile segment that started.
type Transition struct {
	At    sim.Time
	NLoS  bool
	Seg   int
	Shape Shaping
}

// String renders the transition for determinism diffs.
func (t Transition) String() string {
	state := "los"
	if t.NLoS {
		state = "nlos"
	}
	return fmt.Sprintf("%v %s seg=%d %v", time.Duration(t.At), state, t.Seg, t.Shape)
}

// BlockageConfig parameterizes a two-state LoS/NLoS blockage process.
type BlockageConfig struct {
	// Seed drives the model's own RNG: dwell-time draws never touch the
	// scheduler's shared stream, so two models with the same seed make
	// the same transitions at the same virtual instants regardless of
	// what traffic runs beside them.
	Seed int64
	// Dir is the link direction(s) the model retunes (DirAB when 0 is
	// not meaningful — pass explicitly; StartBlockage panics on 0).
	Dir Direction
	// LoS and NLoS are the shapings applied on entering each state.
	LoS, NLoS Shaping
	// MeanLoS and MeanNLoS are the mean exponential dwell times
	// (mmWave measurements put blockage events at ~100ms–1s NLoS
	// against seconds of LoS).
	MeanLoS, MeanNLoS time.Duration
}

// minDwell floors every dwell draw so the model cannot degenerate into
// a zero-interval flap storm.
const minDwell = 10 * time.Millisecond

// Blockage is a running LoS/NLoS process bound to one link.
type Blockage struct {
	sched *sim.Scheduler
	link  *Link
	cfg   BlockageConfig
	rng   *rand.Rand
	nlos  bool
	log   []Transition
	timer sim.Timer
	done  bool
}

// StartBlockage starts a blockage process on l: the LoS shaping is
// applied immediately and the first NLoS transition is scheduled. The
// process runs until Stop.
func StartBlockage(s *sim.Scheduler, l *Link, cfg BlockageConfig) *Blockage {
	if cfg.Dir == 0 {
		panic("netsim: StartBlockage needs an explicit Direction")
	}
	b := &Blockage{sched: s, link: l, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	b.transition(false)
	return b
}

// transition enters the given state, applies its shaping, logs it, and
// schedules the next flip.
func (b *Blockage) transition(nlos bool) {
	if b.done {
		return
	}
	b.nlos = nlos
	shape, mean := b.cfg.LoS, b.cfg.MeanLoS
	kind := "blockage-los"
	if nlos {
		shape, mean = b.cfg.NLoS, b.cfg.MeanNLoS
		kind = "blockage-nlos"
	}
	b.link.Shape(b.cfg.Dir, shape)
	b.log = append(b.log, Transition{At: b.sched.Now(), NLoS: nlos, Shape: shape})
	if bus := b.link.net.obs; bus.Enabled() {
		bus.Emit("netsim", kind, b.cfg.Dir.String(), obs.F("dwell_ms", int(mean/time.Millisecond)))
	}
	dwell := minDwell + time.Duration(b.rng.ExpFloat64()*float64(mean))
	b.timer = b.sched.After(dwell, func() { b.transition(!nlos) })
}

// NLoS reports whether the model is currently in the blocked state.
func (b *Blockage) NLoS() bool { return b.nlos }

// Transitions returns a copy of the transition log.
func (b *Blockage) Transitions() []Transition {
	out := make([]Transition, len(b.log))
	copy(out, b.log)
	return out
}

// Stop halts the process, leaving the link in whatever state it last
// applied (restore explicitly with Shape if needed).
func (b *Blockage) Stop() {
	b.done = true
	b.timer.Stop()
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

// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock. Every component of the simulated network (links, TCP
// endpoints, the service proxy, the EEM) schedules work on a single
// Scheduler, so whole-system experiments run repeatably and far faster
// than real time.
//
// Events fire in (deadline, scheduling order): two events due at the
// same instant run first-scheduled first. The scheduler owns its event
// records — it keeps them on a free list and in a binary heap of its
// own — so scheduling an event in steady state allocates nothing.
//
// A Timer is a value handle to one scheduled event: the scheduler, the
// record, and the record's generation when it was scheduled. A record
// is released — its callback cleared, its generation bumped, and the
// record put back on the free list — when its event is stopped and
// before its callback runs. From then on every handle to it is stale:
// Active reports false and Stop does nothing and reports false, even
// after the record has been reused for another event. A callback that
// stops its own timer therefore stops nothing, and the zero Timer is a
// stale handle to no event.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the
// start of the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; virtual
// durations use the same unit as wall-clock durations.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration from the simulation start.
func (t Time) String() string { return Duration(t).String() }

// Handler is what a scheduled event runs. A type whose pointer is a
// Handler can be scheduled without a closure, and so without
// allocating.
type Handler interface{ Fire() }

// fn adapts a plain function to Handler. A func value is a single
// pointer, so the conversion to Handler does not allocate.
type fn func()

func (f fn) Fire() { f() }

// event is a scheduler-owned record of one scheduled callback. seq
// breaks ties so events scheduled at the same instant fire in
// scheduling order (deterministic FIFO).
type event struct {
	at    Time
	seq   uint64
	h     Handler
	index int    // position in the heap while scheduled
	gen   uint64 // bumped on every release; a Timer holds the value it was scheduled at
	next  *event // free-list link while released
}

// before reports whether e fires ahead of o.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Timer is a handle to a scheduled event. Stop cancels the event if it
// has not yet fired. The zero Timer is inactive.
type Timer struct {
	s   *Scheduler
	e   *event
	gen uint64
}

// Stop cancels the timer, removing its event from the scheduler at
// once. It reports whether the call prevented the event from firing.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.remove(t.e.index)
	t.s.release(t.e)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool { return t.e != nil && t.e.gen == t.gen }

// Scheduler owns the virtual clock and the pending-event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now  Time
	seq  uint64
	heap []*event // binary min-heap ordered by event.before
	free *event   // released records
	rng  *rand.Rand
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with seed (deterministic per seed).
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. All
// stochastic components (loss models, jitter) must draw from it so a
// run is reproducible from its seed.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Schedule arranges for h.Fire to run at the absolute virtual time t.
// Scheduling in the past panics: it indicates a logic error in the
// caller.
func (s *Scheduler) Schedule(t Time, h Handler) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	e := s.free
	if e != nil {
		s.free, e.next = e.next, nil
	} else {
		e = new(event)
	}
	e.at, e.seq, e.h = t, s.seq, h
	s.seq++
	s.heap = append(s.heap, e)
	s.up(e, len(s.heap)-1)
	return Timer{s: s, e: e, gen: e.gen}
}

// At schedules fn to run at the absolute virtual time t.
func (s *Scheduler) At(t Time, f func()) Timer { return s.Schedule(t, fn(f)) }

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step runs the earliest pending event, advancing the clock to its
// deadline. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fireFirst()
	return true
}

// RunUntil runs every event due at or before deadline, in order, then
// leaves the clock at deadline — or where it was, if that is later.
// Events the callbacks schedule inside the window run too.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		s.fireFirst()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Run drains the event queue completely. Use with care: components that
// re-arm periodic timers forever will never let Run return; give those
// components a stop mechanism or use RunUntil.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// fireFirst takes the earliest event off the heap, advances the clock
// to it, releases its record and runs its callback.
func (s *Scheduler) fireFirst() {
	e := s.heap[0]
	s.remove(0)
	s.now = e.at
	h := e.h
	s.release(e)
	h.Fire()
}

// release clears e, invalidates every Timer that refers to it and puts
// it on the free list.
func (s *Scheduler) release(e *event) {
	e.h = nil
	e.gen++
	e.next, s.free = s.free, e
}

// remove takes the event at heap position i out of the heap.
func (s *Scheduler) remove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(s.heap[(i-1)/2]) {
		s.up(last, i)
	} else {
		s.down(last, i)
	}
}

// up places e at heap position i, then moves it toward the root past
// every ancestor it fires before.
func (s *Scheduler) up(e *event, i int) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down places e at heap position i, then moves it toward the leaves
// past every child that fires before it.
func (s *Scheduler) down(e *event, i int) {
	h := s.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

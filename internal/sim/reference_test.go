package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The scheduler this package replaced — a container/heap of *event
// whose stopped events stay queued until their deadline — kept as the
// reference the recycled scheduler must match: same firing order, same
// clock, same Pending, and the same answer from every Stop and Active.

type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	stopped bool
	index   int // heap index, -1 when popped
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refTimer struct{ ev *refEvent }

func (t *refTimer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.stopped || t.ev.index == -1 {
		return false
	}
	t.ev.stopped = true
	return true
}

func (t *refTimer) Active() bool {
	return t != nil && t.ev != nil && !t.ev.stopped && t.ev.index != -1
}

type refScheduler struct {
	now    Time
	seq    uint64
	events refHeap
}

func (s *refScheduler) At(t Time, fn func()) *refTimer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	e := &refEvent{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return &refTimer{ev: e}
}

func (s *refScheduler) After(d Duration, fn func()) *refTimer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

func (s *refScheduler) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*refEvent)
		if e.stopped {
			continue
		}
		s.now = e.at
		e.fn()
		return true
	}
	return false
}

func (s *refScheduler) RunUntil(deadline Time) {
	for len(s.events) > 0 {
		e := s.events[0]
		if e.stopped {
			heap.Pop(&s.events)
			continue
		}
		if e.at > deadline {
			break
		}
		heap.Pop(&s.events)
		s.now = e.at
		e.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *refScheduler) Pending() int {
	n := 0
	for _, e := range s.events {
		if !e.stopped {
			n++
		}
	}
	return n
}

// --- the differential harness ----------------------------------------------

// handle is what a script holds of a scheduled event on either side.
type handle interface {
	Stop() bool
	Active() bool
}

// clock is the surface a script drives, over either scheduler.
type clock struct {
	at       func(Time, func()) handle
	after    func(Duration, func()) handle
	step     func() bool
	runUntil func(Time)
	now      func() Time
	pending  func() int
}

func newClock() clock {
	s := NewScheduler(1)
	return clock{
		at:       func(t Time, fn func()) handle { return s.At(t, fn) },
		after:    func(d Duration, fn func()) handle { return s.After(d, fn) },
		step:     s.Step,
		runUntil: s.RunUntil,
		now:      s.Now,
		pending:  func() int { return len(s.heap) },
	}
}

func refClock() clock {
	s := &refScheduler{}
	return clock{
		at:       func(t Time, fn func()) handle { return s.At(t, fn) },
		after:    func(d Duration, fn func()) handle { return s.After(d, fn) },
		step:     s.Step,
		runUntil: s.RunUntil,
		now:      func() Time { return s.now },
		pending:  s.Pending,
	}
}

// maxScriptEvents bounds what one script schedules, callbacks included,
// so a script that ends in Run terminates.
const maxScriptEvents = 512

// runScript interprets script against c and returns the transcript:
// every firing with its clock, every Stop and Active answer, and the
// clock and Pending after each operation. Deadlines are a few
// nanoseconds apart so ties are common. An event's callback may stop
// itself, stop any handle the script holds (fired, stopped or live —
// so a stale handle meets its reused record), or schedule a child.
func runScript(c clock, script []byte) []string {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	var (
		log       []string
		handles   []handle
		scheduled int
		newEvent  func(schedule func(func()) handle, act byte)
	)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	newEvent = func(schedule func(func()) handle, act byte) {
		if scheduled == maxScriptEvents {
			return
		}
		id, self := scheduled, len(handles)
		scheduled++
		handles = append(handles, nil)
		handles[self] = schedule(func() {
			logf("fire %d at %d", id, c.now())
			switch act % 4 {
			case 1:
				logf("self-stop %v active %v", handles[self].Stop(), handles[self].Active())
			case 2:
				k := int(act/4) % len(handles)
				logf("stop %d: %v", k, handles[k].Stop())
			case 3:
				d := Duration(act / 4 % 4)
				newEvent(func(fn func()) handle { return c.after(d, fn) }, act/16)
			}
			logf("pending %d", c.pending())
		})
	}
	for len(script) > 0 {
		switch op := next(); op % 7 {
		case 0:
			t := c.now() + Time(next()%8)
			newEvent(func(fn func()) handle { return c.at(t, fn) }, next())
		case 1:
			d := Duration(int(next()%10) - 2) // negative delays mean now
			newEvent(func(fn func()) handle { return c.after(d, fn) }, next())
		case 2:
			if len(handles) > 0 {
				k := int(next()) % len(handles)
				logf("stop %d: %v", k, handles[k].Stop())
			}
		case 3:
			if len(handles) > 0 {
				k := int(next()) % len(handles)
				logf("active %d: %v", k, handles[k].Active())
			}
		case 4:
			logf("step %v", c.step())
		case 5:
			c.runUntil(c.now() + Time(next()%16))
		case 6:
			for c.step() {
			}
		}
		logf("now %d pending %d", c.now(), c.pending())
	}
	return log
}

// checkScript runs script on both schedulers and fails at the first
// line where their transcripts part.
func checkScript(t *testing.T, script []byte) {
	t.Helper()
	got, want := runScript(newClock(), script), runScript(refClock(), script)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("script %x: line %d is %q, the reference says %q", script, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %x: %d transcript lines, the reference has %d", script, len(got), len(want))
	}
}

// TestSchedulerMatchesReference is the differential property: random
// scripts of At/After/Stop/Active/Step/RunUntil/Run leave the same
// transcript on the recycled scheduler as on the reference.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		script := make([]byte, rng.Intn(400))
		rng.Read(script)
		checkScript(t, script)
	}
}

func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 1, 1, 4, 4})          // a self-stopping event
	f.Add([]byte{1, 5, 0, 4, 1, 5, 0, 2, 0, 3, 0}) // a stale handle on a reused record
	f.Add([]byte{0, 2, 3, 0, 2, 15, 6, 5, 9})      // a child event, then Run
	f.Fuzz(checkScript)
}

// --- records ------------------------------------------------------------------

// TestStoppedTimerLeavesHeap pins eager Stop: a timer re-armed with
// Stop + After — TCP's RTO on every new ACK — keeps one record queued,
// not one per arming until each deadline passes (the reference's heap
// holds all 10 001 of them).
func TestStoppedTimerLeavesHeap(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Second, func() {})
	first := tm.e
	for i := 0; i < 10_000; i++ {
		tm.Stop()
		tm = s.After(time.Second, func() {})
	}
	if len(s.heap) != 1 {
		t.Fatalf("%d records in the heap after 10 000 arm/Stop cycles, want 1", len(s.heap))
	}
	if tm.e != first || s.free != nil {
		t.Fatal("re-arming did not reuse the record its Stop released")
	}
}

// TestStaleHandleAfterReuse: the record of a fired event is reused by
// the next one scheduled; the old handle must neither see nor stop it.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := NewScheduler(1)
	old := s.After(time.Millisecond, func() {})
	s.Run()
	fired := false
	cur := s.After(time.Millisecond, func() { fired = true })
	if cur.e != old.e {
		t.Fatal("the second event did not reuse the first one's record")
	}
	if old.Active() || old.Stop() {
		t.Fatal("a stale handle acts on its record's next event")
	}
	if !cur.Active() {
		t.Fatal("the live handle lost its event to a stale Stop")
	}
	s.Run()
	if !fired {
		t.Fatal("the live event did not fire")
	}
}

// TestReleasedBeforeCallback: by the time a callback runs its record is
// back on the free list with the callback cleared, so the callback's
// own handle is inactive and an event it schedules takes that record.
func TestReleasedBeforeCallback(t *testing.T) {
	s := NewScheduler(1)
	var self Timer
	var inside bool
	self = s.After(0, func() {
		inside = true
		if self.Active() || self.Stop() {
			t.Error("a callback's own timer is still active")
		}
		if s.free != self.e || self.e.h != nil {
			t.Error("the record was not released before its callback ran")
		}
		if next := s.After(0, func() {}); next.e != self.e {
			t.Error("an event scheduled by the callback did not reuse its record")
		}
	})
	s.Run()
	if !inside {
		t.Fatal("callback did not run")
	}
}

func TestZeroTimerInactive(t *testing.T) {
	var tm Timer
	if tm.Active() || tm.Stop() {
		t.Fatal("the zero Timer acts as if scheduled")
	}
}

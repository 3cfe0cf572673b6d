package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report success")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report failure")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report failure")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(5*time.Millisecond, func() { ran = true })
	s.RunUntil(Time(2 * time.Millisecond))
	if ran {
		t.Fatal("event ran before its deadline")
	}
	if s.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock = %v, want 2ms", s.Now())
	}
	s.RunFor(10 * time.Millisecond)
	if !ran {
		t.Fatal("event did not run inside window")
	}
	if s.Now() != Time(12*time.Millisecond) {
		t.Fatalf("clock = %v, want 12ms", s.Now())
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	s.After(time.Millisecond, func() {
		order = append(order, "a")
		s.After(time.Millisecond, func() { order = append(order, "c") })
		s.After(0, func() { order = append(order, "b") })
	})
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Time(time.Millisecond), func() {})
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler(1)
	t1 := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	if len(s.heap) != 2 {
		t.Fatalf("%d events queued, want 2", len(s.heap))
	}
	t1.Stop()
	if len(s.heap) != 1 {
		t.Fatalf("%d events queued after stop, want 1", len(s.heap))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var samples []int64
		var tick func()
		n := 0
		tick = func() {
			samples = append(samples, s.rng.Int63n(1000), int64(s.Now()))
			n++
			if n < 50 {
				s.After(Duration(s.rng.Intn(int(time.Millisecond))), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(7)
		var times []Time
		for _, d := range delays {
			s.After(Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

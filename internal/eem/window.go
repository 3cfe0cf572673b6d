package eem

import (
	"time"

	"repro/internal/sim"
)

// Window turns cumulative counters into a windowed figure — a rate or
// a ratio over the last completed window — keeping one series per
// (name, index). The thesis's "avg" variables derive from SNMP
// history; here the history is the query history. A series reads 0 on
// first sight and its cached figure while the current window is empty
// or narrower than Min, so interleaved readers (the periodic pass, the
// policy pump, filters) inside one window see one value; otherwise it
// closes the window with the caller's formula over the deltas.
type Window struct {
	Min   time.Duration
	state map[windowKey]*windowState
}

type windowKey struct {
	name  string
	index int
}

type windowState struct {
	lastT sim.Time
	a, b  int64
	value float64
}

// Roll returns the figure of series (name, index) at now, where a and b
// are the counters' current values and f computes the figure from the
// window's width and the counters' deltas.
func (w *Window) Roll(now sim.Time, name string, index int, a, b int64,
	f func(dt time.Duration, da, db int64) float64) float64 {
	k := windowKey{name, index}
	st := w.state[k]
	if st == nil {
		if w.state == nil {
			w.state = make(map[windowKey]*windowState)
		}
		w.state[k] = &windowState{lastT: now, a: a, b: b}
		return 0
	}
	dt := now.Sub(st.lastT)
	if dt <= 0 || dt < w.Min {
		return st.value
	}
	st.value = f(dt, a-st.a, b-st.b)
	st.lastT, st.a, st.b = now, a, b
	return st.value
}

// perSecond is the rate formula: the first counter's delta over the
// window's width in seconds.
func perSecond(dt time.Duration, da, _ int64) float64 { return float64(da) / dt.Seconds() }

package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianInt64 is the upper median of xs, which it leaves alone; 0 for
// no samples.
func medianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// segRates turns cumulative (time ns, count) marks taken at a sink into
// one rate per segment, in counts per second. cal, when not nil, holds
// the calibration kernel's time at each mark, and the rates are per
// calibrated second (cal.go).
func segRates(ts, counts, cal []int64) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		if dt := ts[i] - ts[i-1]; dt > 0 {
			r := float64(counts[i]-counts[i-1]) * 1e9 / float64(dt)
			if cal != nil {
				r /= calScale(cal[i])
			}
			out = append(out, r)
		}
	}
	return out
}

// histogram is a log-linear histogram of non-negative nanosecond
// values: 128 linear sub-buckets per power of two (under 0.8 % wide),
// fixed size, no allocation on add — a sink can record every sampled
// latency of a run without holding millions of samples.
type histogram struct {
	counts [64 * histSub]int64
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits // v>>e is in [histSub, 2*histSub)
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histLower is the smallest value that lands in bucket b.
func histLower(b int) float64 {
	if b < 2*histSub {
		return float64(b)
	}
	e := b/histSub - 1
	return math.Ldexp(float64(b%histSub+histSub), e)
}

func (h *histogram) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates inside the bucket that holds the q-quantile.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histLower(b), histLower(b+1)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(len(h.counts) - 1)
}

// windowMedians reduces a stream of latencies to the median of every
// window of windowSamples consecutive samples. The median of those
// medians is the benchmark's p50: a burst of slow samples — a
// neighbour on the host taking the CPU for a few milliseconds — spoils
// the windows it falls in and leaves the others alone, where it would
// shift a single whole-run median. scale, when set, converts a closing
// window's median to calibrated time (cal.go).
type windowMedians struct {
	buf   [windowSamples]int64
	n     int
	scale float64
	meds  []float64
}

const windowSamples = 256

func (w *windowMedians) add(v int64) {
	w.buf[w.n] = v
	if w.n++; w.n == windowSamples {
		slices.Sort(w.buf[:])
		med := float64(w.buf[windowSamples/2-1]+w.buf[windowSamples/2]) / 2
		if w.scale != 0 {
			med *= w.scale
		}
		w.meds = append(w.meds, med)
		w.n = 0
	}
}

func (w *windowMedians) reset() { w.n, w.meds = 0, w.meds[:0] }

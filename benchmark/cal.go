package main

// The host this benchmark runs on — a few shared vCPUs — changes speed
// by up to a factor of two between one run and the next, and the whole
// process changes with it: in ten runs the wall-clock rate of the
// single-threaded workloads spread by 21-34 % of its median, which no
// regression bound survives. The slow-down is uniform, though: a fixed
// piece of arithmetic slows by the same factor (README, "The
// estimator"). So every CPU-bound workload times a calibration kernel
// next to each of its segments, on the thread that does the work, and
// reports its rates and times in calibrated seconds: wall seconds
// scaled by calRefNs over the kernel's time just then. On a host at
// full speed calibrated and wall seconds coincide. The open loop is
// paced by the wall clock and its latency set by a timer, so it stays
// in wall time.

import "runtime"

const (
	calBytes = 512 << 10
	// calRefNs is what the kernel takes on the host class the
	// benchmark was sized on when nothing disturbs it (its fastest
	// quartile over quiet runs).
	calRefNs = 190_000
)

var calBuf = func() []byte {
	b := make([]byte, calBytes)
	for i := range b {
		b[i] = byte(i*7 + i>>9)
	}
	return b
}()

// calKernel runs the calibration kernel once — a 16-bit ones'-style sum
// over 512 KiB, deliberately the benchmark's own code so that no change
// to the repository can move it — and returns how long it took.
func calKernel() int64 {
	t0 := nowNs()
	var acc uint32
	b := calBuf
	for i := 0; i+1 < len(b); i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	runtime.KeepAlive(acc) // any shard may run the kernel: no shared sink
	return nowNs() - t0
}

// calScale is the factor that turns a wall-clock time measured while
// the kernel took cal ns into calibrated time (and, inverted, a rate).
func calScale(cal int64) float64 { return calRefNs / float64(max(cal, 1)) }

// calMedian runs the kernel n times and returns the median time.
func calMedian(n int) int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = calKernel()
	}
	return medianInt64(ts)
}

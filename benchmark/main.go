// Command bench is the repository's benchmark: five named workloads
// over the concurrent plane, the inline flow lifecycle and the
// simulator, measured from outside through the packages' public
// functions. See README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench compare A.json [B.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// metricDef names one metric; BENCHMARK.json repeats the end-to-end
// ones with their bounds (TestBenchmarkJSON keeps the two in step).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_us_lo", "us", "lower"},
	{"lat_p50_us_hi", "us", "lower"},
	{"goodput_bps", "bit/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"filter.parse_ns", "ns", "lower"}, {"filter.steerkey_ns", "ns", "lower"},
	{"filter.remarshal_ns", "ns", "lower"}, {"filter.remarshal_allocs", "count", "lower"}, {"filter.remarshal_bytes", "B", "lower"},
	{"filter.remarshal_hdr_ns", "ns", "lower"}, {"filter.remarshal_share_ns", "ns", "lower"},
	{"ip.checksum_ns_1460", "ns", "lower"}, {"tcp.marshal_ns_1460", "ns", "lower"}, {"tcp.segment_ns", "ns", "lower"},
	{"classifier.match_ns_1k", "ns", "lower"}, {"classifier.match_ns_8k", "ns", "lower"}, {"classifier.compile_ms_8k", "ms", "lower"},
	{"flowlog.record_ns", "ns", "lower"}, {"flowlog.lifecycle_ns", "ns", "lower"}, {"flowlog.allocs_per_flow", "count", "lower"},
	{"proxy.intercept_ns", "ns", "lower"}, {"proxy.self_ns", "ns", "lower"}, {"proxy.residual_pct", "%", "lower"},
	{"proxy.intercept_miss_ns", "ns", "lower"}, {"proxy.intercept_tcp_ns", "ns", "lower"},
	{"proxy.intercept_depth4_ns", "ns", "lower"}, {"proxy.intercept_depth8_ns", "ns", "lower"},
	{"proxy.intercept_edit_ns", "ns", "lower"}, {"proxy.intercept_rewrite_ns", "ns", "lower"}, {"proxy.intercept_ack_ns", "ns", "lower"},
	{"proxy.allocs_per_pkt", "count", "lower"}, {"proxy.bytes_per_pkt", "B", "lower"},
	{"proxy.flow_setup_ns", "ns", "lower"}, {"proxy.flow_teardown_ns", "ns", "lower"},
	{"proxy.allocs_per_flow", "count", "lower"}, {"proxy.bytes_per_flow", "B", "lower"},
	{"proxy.pkts_per_s", "1/s", "higher"}, {"proxy.flows_per_s", "1/s", "higher"},
	{"filters.hooks_ns", "ns", "lower"}, {"filters.ttsf_ns", "ns", "lower"},
	{"filters.ttsf_remap_ns_16", "ns", "lower"}, {"filters.ttsf_remap_ns_128", "ns", "lower"}, {"filters.ttsf_remap_ns_4096", "ns", "lower"},
	{"filters.ttsf_allocs_per_ack", "count", "lower"},
	{"dataplane.steer_ns", "ns", "lower"}, {"dataplane.dispatch_ns", "ns", "lower"}, {"dataplane.handoff_ns", "ns", "lower"},
	{"dataplane.batch_fill", "pkts", "higher"}, {"dataplane.wakeups_per_kpkt", "count", "lower"}, {"dataplane.stalls_per_kpkt", "count", "lower"},
	{"dataplane.lat_p90_us_lo", "us", "lower"}, {"dataplane.lat_p90_us_hi", "us", "lower"},
	{"dataplane.lat_p99_us_lo", "us", "lower"}, {"dataplane.lat_p99_us_hi", "us", "lower"},
	{"dataplane.gen_late_p99_us", "us", "lower"}, {"dataplane.ctrl_us", "us", "lower"},
	{"sim.event_ns_1k", "ns", "lower"}, {"sim.event_ns_100k", "ns", "lower"}, {"sim.allocs_per_event", "count", "lower"},
	{"netsim.hop_ns", "ns", "lower"},
	{"migrate.encode_us", "us", "lower"}, {"migrate.decode_us", "us", "lower"}, {"migrate.snapshot_bytes", "B", "lower"},
	{"experiments.events_ms", "ms", "lower"}, {"experiments.chaos_ms", "ms", "lower"}, {"experiments.adapt_ms", "ms", "lower"},
	{"experiments.flows_ms", "ms", "lower"}, {"experiments.migrate_ms", "ms", "lower"}, {"experiments.mmwave_ms", "ms", "lower"},
	{"experiments.suite_ms", "ms", "lower"}, {"experiments.all_ms", "ms", "lower"},
	{"experiments.mmwave_managed_bps", "bit/s", "higher"}, {"experiments.mmwave_managed_peak_pkts", "pkts", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"host.cal_us", "us", "lower"},
}

// report is what one run of one workload found.
type report struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	notes             []string // one line each, printed before the result
}

func (r *report) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// runConfig is the command line of one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func (c runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

var workloads = map[string]func(runConfig, *report) error{
	"fwd-small": func(c runConfig, r *report) error { return runClosed(&fwdSmall, c, r) },
	"edit-bulk": func(c runConfig, r *report) error { return runClosed(&editBulk, c, r) },
	"churn":     runChurn,
	"paced":     runPaced,
	"sim-suite": runSimSuite,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var c runConfig
	var trace int
	var out string
	flag.StringVar(&c.workload, "workload", "", "fwd-small | edit-bulk | churn | paced | sim-suite")
	flag.Int64Var(&c.seed, "seed", 7, "generator seed")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	flag.StringVar(&out, "out", "", "also append the result, as one JSON line, to this file")
	flag.Parse()
	c.trace = trace != 0
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench --workload fwd-small|edit-bulk|churn|paced|sim-suite [--seed n] [--seconds s] [--trace 0|1] [--out file]")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	fmt.Printf("bench %s seed=%d seconds=%g trace=%d gomaxprocs=%d shards=%d ring=%d batch=64 flush=1ms\n",
		c.workload, c.seed, c.seconds, trace, runtime.GOMAXPROCS(0), planeShards(), ringSize)

	// The hard wall deadline: twice the planned length (plus set-up).
	// Past it the run prints what it has and fails.
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	deadline := time.AfterFunc(time.Duration(2*c.seconds+60)*time.Second, func() {
		fmt.Printf("FAIL: %s exceeded its wall deadline; partial metrics: %v %v\n", c.workload, r.e2e, r.layer)
		os.Exit(3)
	})
	err := run(c, r)
	deadline.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	os.Exit(emit(c, r, out))
}

// emit prints the notes, every metric by name with its unit, and the
// result object as the last line; it returns the exit code.
func emit(c runConfig, r *report, out string) int {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs, vals := endToEnd, r.e2e
	if c.trace {
		defs, vals = perLayer, r.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	correct := r.failed == 0 && r.attempted > 0
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("%-36s %16.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = metric{v, d.unit}
		if !c.trace && !(v > 0) {
			correct = false
			fmt.Printf("FAIL: end-to-end metric %s was not measured\n", d.name)
		}
	}
	fmt.Printf("ops_attempted %d ops_failed %d\n", r.attempted, r.failed)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out != "" {
		rec, _ := json.Marshal(struct {
			Workload string          `json:"workload"`
			Seed     int64           `json:"seed"`
			Trace    bool            `json:"trace"`
			Result   json.RawMessage `json:"result"`
		}{c.workload, c.seed, c.trace, line})
		if err := appendLine(out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setups runs build n times, timing each in calibrated seconds,
// tearing down all but the last, and returns the median.
func setups[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			runtime.GC() // the next set-up reuses the heap the last one freed
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds()*calScale(calMedian(5)))
		last = v
	}
	return last, median(secs), nil
}

const setupRuns = 15

// runClosed is fwd-small and edit-bulk: a closed loop on the
// concurrent plane.
func runClosed(w *planeWorkload, c runConfig, r *report) error {
	h, setup, err := setups(setupRuns,
		func() (*harness, error) { return buildPlane(w, c.seed, chainFull) },
		func(h *harness) { h.pl.Close() })
	if err != nil {
		return err
	}
	// The first set-up also pays process start.
	r.e2e["setup_s"] = setup
	h.verifyPass()
	window := 1.0
	if c.trace {
		window = 0.25
	}
	h.closedLoop(c.dur(window))
	rate, fast, wall, cal, segs := h.sink.rate()
	lat := h.sink.latency(0)
	p50, wins := h.sink.latencyP50(0)
	planeMetrics(h, r)
	r.e2e["ops_per_s"] = rate
	r.e2e["lat_p50_us_lo"] = p50 / 1e3
	r.e2e["lat_p50_us_hi"] = p50 / 1e3
	r.e2e["goodput_bps"] = rate * w.goodputBitsPerPkt()
	r.layer["proxy.pkts_per_s"] = wall
	r.layer["host.cal_us"] = float64(cal) / 1e3
	r.layer["dataplane.lat_p90_us_hi"] = lat.quantile(0.9) / 1e3
	r.layer["dataplane.lat_p99_us_hi"] = lat.quantile(0.99) / 1e3
	r.notef("%s: %.0f pkts per calibrated second, median of %d sink-side segments of %d packets (fast decile %.0f); latency p50 %.1f calibrated us, median of %d windows of %d samples",
		w.name, rate, segs, w.segPkts, fast, p50/1e3, wins, windowSamples)
	r.notef("%s: wall clock %.0f pkts/s, latency p50 %.1f us; calibration kernel %.1f us (reference %.1f): host at %.0f %% of reference speed",
		w.name, wall, lat.quantile(0.5)/1e3, float64(cal)/1e3, calRefNs/1e3, 100*calScale(cal))
	if segs < 100 && !c.trace {
		r.notef("WARNING: only %d segments; the estimator wants 100", segs)
	}
	var tr *tracer
	if c.trace {
		tr = newTracer(0)
		h.traceStart()
		h.closedLoop(c.dur(window))
		traced, _, _, _, _ := h.sink.rate()
		h.spans(tr)
		r.layer["trace.overhead_pct"] = 100 * (rate - traced) / rate
	}
	return finishPlane(h, c, r, wall, tr)
}

// finishPlane closes a concurrent-plane workload: the plane's counters
// against the schedule and, on a traced run, the replay of the
// workload's own sequence, the fixed-shape layer loops and the trace.
// liveRate is the closed loop's wall-clock rate (0 for the open loop).
func finishPlane(h *harness, c runConfig, r *report, liveRate float64, live *tracer) error {
	var notes []string
	r.attempted, r.failed, notes = h.finish()
	r.notes = append(r.notes, notes...)
	if !c.trace {
		return nil
	}
	replay := newTracer(1 << 32)
	replayPlane(h.w, c.seed, liveRate, replay, r.layer)
	microLayers(c.seed, r.layer)
	budget(r)
	return saveTrace(c, live, replay)
}

// saveTrace writes the run's spans to out/trace-<workload>.json beside
// the sources (run.sh runs the binary from the checkout's root).
func saveTrace(c runConfig, tracers ...*tracer) error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(dir, "trace-"+c.workload+".json"), c.workload, tracers...)
}

// goodputBitsPerPkt is the TCP payload the plane emits per packet of
// the schedule, in bits: ackEvery data segments (every other one
// halved when the workload edits) and one bare ACK.
func (w *planeWorkload) goodputBitsPerPkt() float64 {
	per := float64(w.spec.payload)
	if w.spec.edits {
		per *= 0.75
	}
	return 8 * per * float64(w.spec.ackEvery) / float64(w.spec.ackEvery+1)
}

// planeMetrics reads the plane's own counters.
func planeMetrics(h *harness, r *report) {
	pkts := float64(h.dispatched)
	r.layer["dataplane.batch_fill"] = pkts / float64(max(h.pl.Batches(), 1))
	r.layer["dataplane.wakeups_per_kpkt"] = 1e3 * float64(h.pl.Wakeups()) / pkts
	r.layer["dataplane.stalls_per_kpkt"] = 1e3 * float64(h.pl.Stalls()) / pkts
}

// Offered rates of the open loop, packets per second.
const (
	pacedLo = 50_000
	pacedHi = 500_000
)

// runPaced is the open loop: fwd-small's traffic on a fixed schedule,
// first at pacedLo, then at pacedHi with control mutations beside it.
func runPaced(c runConfig, r *report) error {
	w := fwdSmall
	w.name, w.segPkts = "paced", 1<<12
	h, setup, err := setups(setupRuns,
		func() (*harness, error) { return buildPlane(&w, c.seed, chainFull) },
		func(h *harness) { h.pl.Close() })
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	h.verifyPass()
	phase := 0.5
	if c.trace {
		phase = 0.25
	}
	lo := h.pacedLoop(pacedLo, c.dur(phase), 0, false)
	_, _, rateLo, _, _ := h.sink.rate()
	hi := h.pacedLoop(pacedHi, c.dur(phase), 1, true)
	_, _, rateHi, _, segs := h.sink.rate()
	latLo, latHi := h.sink.latency(0), h.sink.latency(1)
	p50Lo, winsLo := h.sink.latencyP50(0)
	p50Hi, winsHi := h.sink.latencyP50(1)
	planeMetrics(h, r)
	r.e2e["ops_per_s"] = rateHi
	r.e2e["lat_p50_us_lo"] = p50Lo / 1e3
	r.e2e["lat_p50_us_hi"] = p50Hi / 1e3
	r.e2e["goodput_bps"] = rateHi * w.goodputBitsPerPkt()
	r.layer["proxy.pkts_per_s"] = rateHi
	r.layer["dataplane.lat_p90_us_lo"] = latLo.quantile(0.9) / 1e3
	r.layer["dataplane.lat_p99_us_lo"] = latLo.quantile(0.99) / 1e3
	r.layer["dataplane.lat_p90_us_hi"] = latHi.quantile(0.9) / 1e3
	r.layer["dataplane.lat_p99_us_hi"] = latHi.quantile(0.99) / 1e3
	late := lo.late
	late.merge(&hi.late)
	r.layer["dataplane.gen_late_p99_us"] = late.quantile(0.99) / 1e3
	r.layer["dataplane.ctrl_us"] = median(hi.ctrlUs)
	r.notef("paced lo: offered %d pkts/s, delivered %.0f; latency p50 %.1f us (median of %d windows), whole phase p50 %.1f p90 %.1f p99 %.1f us over %d samples; generator late p99 %.1f us",
		pacedLo, rateLo, p50Lo/1e3, winsLo, latLo.quantile(0.5)/1e3, latLo.quantile(0.9)/1e3, latLo.quantile(0.99)/1e3, latLo.n, lo.late.quantile(0.99)/1e3)
	r.notef("paced hi: offered %d pkts/s, delivered %.0f (median of %d segments); latency p50 %.1f us (median of %d windows), whole phase p50 %.1f p90 %.1f p99 %.1f us over %d samples; generator late p99 %.1f us; %d add+delete pairs, median %.1f us",
		pacedHi, rateHi, segs, p50Hi/1e3, winsHi, latHi.quantile(0.5)/1e3, latHi.quantile(0.9)/1e3, latHi.quantile(0.99)/1e3, latHi.n,
		hi.late.quantile(0.99)/1e3, len(hi.ctrlUs), median(hi.ctrlUs))
	var tr *tracer
	if c.trace {
		tr = newTracer(0)
		h.traceStart()
		h.pacedLoop(pacedLo, c.dur(phase), 0, false)
		h.pacedLoop(pacedHi, c.dur(phase), 1, false)
		h.spans(tr)
		// An open loop delivers what it is offered, traced or not; the
		// overhead shows as added latency at the high rate.
		tracedP50, _ := h.sink.latencyP50(1)
		tracedHi := tracedP50 / 1e3
		r.layer["trace.overhead_pct"] = 100 * (tracedHi - r.e2e["lat_p50_us_hi"]) / r.e2e["lat_p50_us_hi"]
	}
	err = finishPlane(h, c, r, 0, tr)
	r.failed += hi.ctrlKO
	return err
}

// runChurn is the flow lifecycle on the inline plane.
func runChurn(c runConfig, r *report) error {
	rig, setup, _ := setups(setupRuns,
		func() (*churnRig, error) { return buildChurn(c.seed), nil },
		func(*churnRig) {})
	r.e2e["setup_s"] = setup
	rig.verify = true
	rig.rounds(verifyPkts / 7 / churnWidth)
	rig.advance()
	rig.verify = false
	window := 1.0
	if c.trace {
		window = 0.25
	}
	rig.run(c.dur(window))
	rates := segRates(rig.marksT, rig.marksN, rig.marksCal)
	wall := median(segRates(rig.marksT, rig.marksN, nil))
	cal := medianInt64(rig.marksCal)
	rate, lat := median(rates), median(rig.lat.meds)
	r.e2e["ops_per_s"] = rate
	r.e2e["lat_p50_us_lo"] = lat / 1e3
	r.e2e["lat_p50_us_hi"] = lat / 1e3
	r.e2e["goodput_bps"] = rate * 2 * 64 * 8
	r.layer["proxy.flows_per_s"] = wall
	r.layer["proxy.pkts_per_s"] = wall * 7
	r.layer["host.cal_us"] = float64(cal) / 1e3
	r.notef("churn: %.0f flows (%.0f pkts) per calibrated second, median of %d segments of %d lifecycles (fast decile %.0f); flow completion p50 %.1f calibrated us (median of %d windows of %d rounds)",
		rate, 7*rate, len(rates), churnAdvance, quantile(rates, 0.9), lat/1e3, len(rig.lat.meds), windowSamples)
	r.notef("churn: wall clock %.0f flows/s; clock advance %.0f us per segment; calibration kernel %.1f us (reference %.1f): host at %.0f %% of reference speed",
		wall, median(rig.advanceNs)/1e3, float64(cal)/1e3, calRefNs/1e3, 100*calScale(cal))
	var tr *tracer
	if c.trace {
		tr = newTracer(0)
		rig.tr = tr
		rig.run(c.dur(window))
		r.layer["trace.overhead_pct"] = 100 * (rate - median(segRates(rig.marksT, rig.marksN, rig.marksCal))) / rate
	}
	var notes []string
	r.attempted, r.failed, notes = rig.finish()
	r.notes = append(r.notes, notes...)
	if c.trace {
		replayChurn(c.seed, r.layer)
		microLayers(c.seed, r.layer)
		budget(r)
		return saveTrace(c, tr)
	}
	return nil
}

// runSimSuite is the simulator: six scenarios per iteration.
func runSimSuite(c runConfig, r *report) error {
	s := &suite{seed: c.seed}
	// Set-up is the simulator's first use: one full iteration grows the
	// heap and fills the packet pools every later iteration reuses.
	_, setup, _ := setups(5, func() (int, error) { s.iteration(); return 0, nil }, func(int) {})
	r.e2e["setup_s"] = setup
	s.reset()
	window := 1.0
	if c.trace {
		window = 0.4
	}
	for deadline := nowNs() + int64(c.dur(window)); nowNs() < deadline; {
		s.iteration()
	}
	iter, wall := median(s.iterMs), median(s.wallMs)
	cal := medianInt64(s.cal)
	r.e2e["ops_per_s"] = 1e3 / iter
	r.e2e["lat_p50_us_lo"] = iter * 1e3
	r.e2e["lat_p50_us_hi"] = iter * 1e3
	r.e2e["goodput_bps"] = s.managedBps
	r.layer["experiments.suite_ms"] = wall
	r.layer["experiments.mmwave_managed_bps"] = s.managedBps
	r.layer["experiments.mmwave_managed_peak_pkts"] = s.managedPeak
	r.layer["host.cal_us"] = float64(cal) / 1e3
	for name, ms := range s.callMs {
		r.layer["experiments."+name+"_ms"] = median(ms)
	}
	r.notef("sim-suite: %.1f calibrated ms per six-scenario iteration, median of %d (fast decile %.1f); mmwave managed %.0f bit/s, peak queue %.0f pkts (virtual, seed %d); output sha256 %x",
		iter, len(s.iterMs), quantile(s.iterMs, 0.1), s.managedBps, s.managedPeak, mmwaveSeed, s.first[:8])
	r.notef("sim-suite: wall clock %.1f ms per iteration; calibration kernel %.1f us (reference %.1f): host at %.0f %% of reference speed",
		wall, float64(cal)/1e3, calRefNs/1e3, 100*calScale(cal))
	if len(s.iterMs) < 25 && !c.trace {
		r.notef("WARNING: only %d iterations; the estimator wants 30", len(s.iterMs))
	}
	if c.trace {
		s.tr = newTracer(0)
		s.reset()
		for deadline := nowNs() + int64(c.dur(0.2)); nowNs() < deadline; {
			s.iteration()
		}
		r.layer["trace.overhead_pct"] = 100 * (median(s.iterMs) - iter) / iter
	}
	r.attempted, r.failed = s.calls, s.failed
	if s.managedBps <= 0 {
		r.failed++
		s.notes = append(s.notes, "no RESULT mmwave line in the suite's output")
	}
	r.notes = append(r.notes, s.notes...)
	if c.trace {
		r.layer["experiments.all_ms"] = runAllMs()
		microLayers(c.seed, r.layer)
		return saveTrace(c, s.tr)
	}
	return nil
}

// runAllMs is the wall time of experiments.RunAll (E1-E22), best of 3.
func runAllMs() float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := nowNs()
		experiments.RunAll(io.Discard)
		if ms := float64(nowNs()-t0) / 1e6; best == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// budget prints how the workload's InterceptAppend time splits.
func budget(r *report) {
	l := r.layer
	if fs, ft := l["proxy.flow_setup_ns"], l["proxy.flow_teardown_ns"]; fs > 0 {
		perFlow := 1e9 / l["proxy.flows_per_s"]
		r.notef("per-flow time %.0f ns: set-up (first-sight SYN) %.0f ns, teardown (share of the clock advance) %.0f ns, together %.1f %%",
			perFlow, fs, ft, 100*(fs+ft)/perFlow)
	}
	total := l["proxy.intercept_ns"]
	if l["proxy.self_ns"] == 0 {
		return
	}
	r.notef("per-packet budget of proxy.InterceptAppend on this workload's own sequence (%.1f ns):", total)
	parts := []string{"filter.parse_ns", "flowlog.record_ns", "proxy.self_ns", "filters.hooks_ns", "filters.ttsf_ns", "filter.remarshal_share_ns"}
	var sum float64
	for _, p := range parts {
		sum += l[p]
		if l[p] == 0 {
			continue
		}
		r.notef("  %-28s %9.1f ns  %5.1f %%", p, l[p], 100*l[p]/total)
	}
	r.notef("  %-28s %9.1f ns  %5.1f %% (parts minus whole)", "sum - intercept", sum-total, 100*(sum-total)/total)
	if hf := l["dataplane.handoff_ns"]; hf != 0 {
		r.notef("  %-28s %9.1f ns  on top, per packet, on the concurrent plane", "dataplane.handoff_ns", hf)
	}
}

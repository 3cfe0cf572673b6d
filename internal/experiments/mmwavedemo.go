package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// MMWaveTrace is the committed blockage trace behind `wsim -exp mmwave`:
// one 5s urban-canyon cycle, looped. A long line-of-sight segment at
// full mmWave rate, a hard blockage (zero capacity — the beam is
// gone, not the link), a short LoS gap, and a soft NLoS segment where
// a reflected path carries a fraction of the rate with extra delay,
// jitter, and loss. Committing the trace makes the scenario's link
// dynamics part of its reproducible input (the same segments at the
// same virtual-time boundaries every run).
func MMWaveTrace() netsim.TraceProfile {
	return netsim.TraceProfile{
		Name: "mmwave-urban",
		Segments: []netsim.TraceSegment{
			{Dur: 1200 * time.Millisecond, Shape: netsim.Shaping{
				Fields: netsim.ShapeAll, Bandwidth: 20e6, Delay: 2 * time.Millisecond}},
			{Dur: 1500 * time.Millisecond, Shape: netsim.Shaping{
				Fields: netsim.ShapeBandwidth, Bandwidth: 0}},
			{Dur: 800 * time.Millisecond, Shape: netsim.Shaping{
				Fields: netsim.ShapeAll, Bandwidth: 20e6, Delay: 2 * time.Millisecond}},
			{Dur: 1500 * time.Millisecond, Shape: netsim.Shaping{
				Fields: netsim.ShapeAll, Bandwidth: 3e6, Delay: 3 * time.Millisecond,
				Jitter: 3 * time.Millisecond, Loss: netsim.Bernoulli{P: 0.02}}},
		},
	}
}

// mmLeg describes one comparison leg of the scenario.
type mmLeg struct {
	name  string
	mwin  bool     // launcher-spawned tcp+mwin chain on the proxy
	rules []string // policy rules (arms the engine when non-empty)
}

// mmResult is what one leg measured.
type mmResult struct {
	name           string
	elapsed        time.Duration
	bps            float64
	peak           int   // mmWave transmit-queue high-water mark
	lteBytes       int64 // bytes the LTE leg carried toward the mobile
	zeroCap        int64 // packets lost to zero-capacity blockage
	fires, reverts int
}

// MMWaveDemo is the 5G scenario behind `wsim -exp mmwave`: a dual-link
// (mmWave + LTE) deployment replaying the committed blockage trace,
// compared across three legs built from the same seed:
//
//	baseline   no proxy services — TCP rides the raw mmWave leg and
//	           eats every blockage as RTO backoff
//	mwin       the delay-aware window filter sizes the wired sender's
//	           view of the receive window to the measured wireless BDP
//	mwin+shed  mwin plus a policy rule on the link.bw EEM variable that
//	           sheds traffic to the LTE leg during hard blockage via
//	           the `mmwave shed` command and brings it back on LoS
//
// The scenario asserts checksum-clean delivery on every leg, that mwin
// keeps the proxy's mmWave buffer occupancy below the baseline's, and
// that the full pack moves data at >= 1.5x the no-proxy baseline.
// Everything runs on virtual time; output is byte-identical per seed.
func MMWaveDemo(seed int64, w io.Writer) error {
	trace := MMWaveTrace()
	fmt.Fprintf(w, "=== 5G mmWave dual-connectivity scenario (seed %d) ===\n", seed)
	fmt.Fprintf(w, "blockage trace %q: %d segments, loop period %v\n",
		trace.Name, len(trace.Segments), trace.Duration())
	for i, seg := range trace.Segments {
		fmt.Fprintf(w, "  seg %d  %-6v %v\n", i, seg.Dur, seg.Shape)
	}

	payload := pattern(8 << 20)
	// Every leg that returns delivered exactly payload (CheckedTransfer
	// says so), so one digest serves all three.
	sum := mmPayloadSum()
	shedRule := "shed when link.bw:1 LT 1000000 for 1 then command mmwave:shed" +
		" on 0.0.0.0 0 0.0.0.0 0 rate 1"
	legs := []mmLeg{
		{name: "baseline"},
		{name: "mwin", mwin: true},
		{name: "mwin+shed", mwin: true, rules: []string{shedRule}},
	}

	results := make([]mmResult, 0, len(legs))
	for _, leg := range legs {
		r, err := runMMWaveLeg(w, seed, payload, sum, leg)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	base, mwin, managed := results[0], results[1], results[2]

	fmt.Fprintf(w, "\nRESULT mmwave baseline_bps=%.0f mwin_bps=%.0f managed_bps=%.0f"+
		" baseline_peak=%d mwin_peak=%d managed_peak=%d speedup=%.2f\n",
		base.bps, mwin.bps, managed.bps, base.peak, mwin.peak, managed.peak,
		managed.bps/base.bps)

	if mwin.peak >= base.peak {
		return fmt.Errorf("mmwave: mwin peak mmWave queue %d not below baseline %d",
			mwin.peak, base.peak)
	}
	if managed.peak >= base.peak {
		return fmt.Errorf("mmwave: managed peak mmWave queue %d not below baseline %d",
			managed.peak, base.peak)
	}
	if managed.bps < 1.5*base.bps {
		return fmt.Errorf("mmwave: managed goodput %.0f b/s under 1.5x baseline %.0f b/s",
			managed.bps, base.bps)
	}
	if managed.fires < 2 || managed.reverts < 1 {
		return fmt.Errorf("mmwave: shed rule barely exercised (fires=%d reverts=%d)",
			managed.fires, managed.reverts)
	}
	if base.lteBytes != 0 || mwin.lteBytes != 0 {
		return fmt.Errorf("mmwave: LTE leg carried traffic without shedding (%d/%d bytes)",
			base.lteBytes, mwin.lteBytes)
	}
	if managed.lteBytes == 0 {
		return fmt.Errorf("mmwave: shed leg never used LTE")
	}
	return nil
}

// mmPayloadSum is the SHA-256 of the scenario's 8 MB payload, hashed
// once per process. The payload itself is built per call: held for the
// process, it would sit in every later scenario's live heap and raise
// the collector's heap target by twice its size.
var mmPayloadSum = sync.OnceValue(func() [sha256.Size]byte {
	return sha256.Sum256(pattern(8 << 20))
})

// runMMWaveLeg builds a fresh system (same seed — the legs differ only
// in proxy services), replays the trace, and pushes the payload, whose
// SHA-256 is sum.
func runMMWaveLeg(w io.Writer, seed int64, payload []byte, sum [sha256.Size]byte, leg mmLeg) (mmResult, error) {
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		Topology:     core.TopoMMWaveLTE,
		EEMInterval:  time.Second,
		ObsRetention: 1 << 16,
		// A deep transmit queue (128 vs the 64 default) keeps the buffer
		// from censoring the occupancy comparison: an unmanaged sender is
		// free to pile up what the blocked leg cannot drain, so the peak
		// measures behavior, not the cap.
		Wireless: netsim.LinkConfig{Bandwidth: 20e6, Delay: 2 * time.Millisecond,
			QueueLen: 128},
		// A low-latency anchor leg (5G NSA keeps the sub-6GHz carrier a
		// few ms away, not classic-LTE 25ms): the smaller the delay gap,
		// the shorter the reordering window when traffic swings back to
		// mmWave after a shed.
		LTE: netsim.LinkConfig{Bandwidth: 12e6, Delay: 10 * time.Millisecond},
	})
	if len(leg.rules) > 0 {
		if err := sys.ArmPolicy(sys.Site, core.PolicyConfig{Period: 100 * time.Millisecond, Rules: leg.rules}); err != nil {
			return mmResult{}, fmt.Errorf("mmwave: leg %s: %w", leg.name, err)
		}
	}
	if leg.mwin {
		sys.MustCommand("load tcp")
		sys.MustCommand("load mwin")
		sys.MustCommand("load launcher")
		sys.MustCommand("add launcher 11.11.10.99 0 11.11.10.10 0 tcp mwin")
	}
	player := MMWaveTrace().Replay(sys.Sched, sys.Wireless, netsim.DirBoth, true)
	defer player.Stop()
	sys.Sched.RunFor(300 * time.Millisecond)

	res, err := sys.CheckedTransfer("mmwave: leg "+leg.name, payload, 7000, 5001, 30*time.Second)
	if err != nil {
		return mmResult{}, err
	}

	out := mmResult{
		name:     leg.name,
		elapsed:  res.Elapsed,
		bps:      float64(len(payload)) * 8 / res.Elapsed.Seconds(),
		peak:     sys.Wireless.StatsAB().PeakQueue,
		lteBytes: sys.LTELink.StatsAB().Bytes,
		zeroCap:  sys.Wireless.StatsAB().ZeroCapDrops + sys.Wireless.StatsBA().ZeroCapDrops,
	}
	out.fires, out.reverts = policyEvents(sys)
	fmt.Fprintf(w, "leg %-10s elapsed=%-12v goodput=%6.2f Mb/s peak_mmwave_queue=%-3d"+
		" lte_bytes=%-8d zero_cap_drops=%-5d fires=%d reverts=%d sha=%x\n",
		leg.name, res.Elapsed, out.bps/1e6, out.peak,
		out.lteBytes, out.zeroCap, out.fires, out.reverts, sum[:8])
	if leg.rules != nil {
		fmt.Fprintf(w, "  %s\n", sys.Proxy.Exec("mmwave status"))
		fmt.Fprintf(w, "  shed timeline (first 10):\n")
		shown := 0
		for _, e := range sys.Obs.Events() {
			if e.Subsys != "mmwave" {
				continue
			}
			if shown < 10 {
				fmt.Fprintf(w, "    %s\n", e.String())
			}
			shown++
		}
		fmt.Fprintf(w, "  shed events total: %d\n", shown)
	}
	return out, nil
}

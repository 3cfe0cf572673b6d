package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// FlowsDemo is the flow-log analytics scenario behind `wsim -exp flows`:
// the policy loop closed over traffic-derived variables instead of
// link metrics. The proxy's flow log accumulates per-flow L4 records
// (retransmissions by sequence regression, zero-window events,
// SYN→SYN-ACK and data→ACK RTT) on the intercept path; their fleet
// aggregates are EEM variables, and a policy rule watches
// flow.retrans_ratio — retransmitted-per-data segments over the last
// aggregation window.
//
// An injected fault makes the wireless link lossy without touching its
// bandwidth, so no link-level variable moves: only the flow log sees
// the degradation. The rule must fire on the climbing retrans ratio
// and shed load by clamping the streams' advertised windows (the
// thesis §8.2.2 wsize prioritization service), then revert once the
// loss clears and the ratio windows decay to zero. Three checksummed
// transfer legs bracket the cycle. Everything runs on virtual time:
// the full output must be byte-identical across runs with the same
// seed — TestScenarios digests it.
func FlowsDemo(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		EEMInterval:  time.Second,
		ObsRetention: 1 << 16,
		Wireless:     netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	if err := sys.ArmPolicy(sys.Site, core.PolicyConfig{
		Period: 250 * time.Millisecond,
		Rules: []string{"shed when flow.retrans_ratio GT 0.02 exit 0.005 for 2" +
			" then load wsize on 11.11.10.99 0 11.11.10.10 0 rate 1"},
	}); err != nil {
		return fmt.Errorf("flows: rule: %w", err)
	}
	fmt.Fprintf(w, "=== flow-log analytics (seed %d) ===\n", seed)

	// Static plumbing: interception with remarshal bookkeeping in both
	// directions — wsize rewrites reverse-direction ACK windows, so the
	// reverse streams need the tcp filter to reseal what it dirties.
	for _, c := range []string{"load tcp",
		"add tcp 11.11.10.99 0 11.11.10.10 0",
		"add tcp 11.11.10.10 0 11.11.10.99 0"} {
		sys.MustCommand(c)
	}
	sys.Sched.RunFor(time.Second)

	inj := faults.NewInjector(sys.Sched, sys.Obs)
	payload := repeatText(120_000)
	bulk := repeatText(1_200_000)
	flowLine := func(tag string) {
		fs := sys.Proxy.FlowStats()
		fmt.Fprintf(w, "flow aggregates %-9s active=%d opened=%d closed=%d retrans=%d zero_win=%d rtt_samples=%d\n",
			tag, fs.Active, fs.Opened, fs.Closed, fs.Retrans, fs.ZeroWin, fs.RTTSamples)
	}
	leg := func(name string, payload []byte, srcPort, dstPort uint16, window time.Duration) error {
		res, err := sys.CheckedTransfer("flows: leg "+name, payload, srcPort, dstPort, window)
		if res != nil {
			fmt.Fprintf(w, "leg %-8s sent=%d received=%d elapsed=%v intact=%v\n",
				name, res.Sent, len(res.Received), res.Elapsed, res.Completed && bytes.Equal(res.Received, payload))
		}
		return err
	}

	// Leg 1: clean link — the flow log records the stream, the ratio
	// stays at zero, and the engine must not act.
	if err := leg("baseline", payload, 7000, 7001, 30*time.Second); err != nil {
		return err
	}
	flowLine("baseline")
	if f, r := policyEvents(sys); f != 0 || r != 0 {
		return fmt.Errorf("flows: engine acted on a clean link (fires=%d reverts=%d)", f, r)
	}

	// The link turns lossy (5% Bernoulli) at unchanged bandwidth for
	// 60 s: invisible to every link variable, unmistakable in the flow
	// log once traffic flows through the loss.
	inj.DegradeLink("wireless", sys.Wireless, 100*time.Millisecond, 60*time.Second,
		2_000_000, netsim.Bernoulli{P: 0.05})

	// Leg 2: a 10x bulk transfer rides the lossy window. TCP's
	// retransmissions keep it intact; the flow log counts every one of
	// them, the ratio windows climb over the enter bound mid-transfer,
	// and the rule loads wsize — the rest of the leg runs under the
	// clamped window.
	if err := leg("lossy", bulk, 7100, 7101, 45*time.Second); err != nil {
		return err
	}
	flowLine("lossy")
	fires, _ := policyEvents(sys)
	fmt.Fprintf(w, "lossy window: policy fires=%d\n", fires)
	if fires < 1 {
		return fmt.Errorf("flows: rule never fired on the retrans ratio (fires=%d)", fires)
	}

	fmt.Fprintf(w, "\n=== flows (after lossy leg) ===\n")
	fmt.Fprint(w, sys.MustCommand("flows 16"))

	// Past the fault window the loss is gone; with no retransmissions
	// feeding them, the ratio windows decay to zero, and the engine
	// must hold below the exit bound and revert.
	sys.Sched.RunFor(40 * time.Second)
	fires, reverts := policyEvents(sys)
	fmt.Fprintf(w, "\nrestored: policy fires=%d reverts=%d\n", fires, reverts)
	if reverts < 1 {
		return fmt.Errorf("flows: rule never reverted after recovery (reverts=%d)", reverts)
	}

	// Leg 3: clean again, windows unclamped.
	if err := leg("clean", payload, 7200, 7201, 30*time.Second); err != nil {
		return err
	}
	flowLine("clean")

	policyTrailer(w, sys, "", "policy trace", "flow analytics metrics")
	return nil
}

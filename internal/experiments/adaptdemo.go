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

// AdaptDemo is the adaptive-services scenario behind `wsim -exp adapt`:
// the closed EEM→SP control loop of the thesis running end to end. A
// double-proxy deployment carries bulk transfers while policy engines
// on both proxies watch the wireless bandwidth through the comma_*
// client API. When an injected fault degrades the link below the
// rules' enter bound, the A engine loads and attaches the compress
// filter and the B engine the decompressor — no operator, no Kati
// session. When the link recovers past the exit bound, both engines
// withdraw their filters again.
//
// Three transfer legs bracket the cycle: a baseline leg before the
// fault, a compressed leg during it (which must put well under half
// the payload bytes on the wireless link), and a restored leg after
// the revert (which must put the full payload back on the air). The
// scenario asserts one complete load→hold→unload hysteresis cycle on
// each engine and checksum-clean delivery on every leg. Everything
// runs on virtual time, so the full output must be byte-identical
// across runs with the same seed; TestScenarios digests exactly this
// output.
func AdaptDemo(seed int64, w io.Writer) error {
	const (
		enterBound = 1_000_000 // b/s: rules engage below this
		exitBound  = 1_500_000 // b/s: and disengage at/above this
		wild       = " on 11.11.10.99 0 11.11.10.10 0 rate 1"
	)
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		Topology:     core.TopoDouble,
		EEMInterval:  time.Second,
		ObsRetention: 1 << 16,
		Wireless:     netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	if err := sys.ArmPolicy(sys.Site, core.PolicyConfig{
		Period: 250 * time.Millisecond,
		Rules: []string{fmt.Sprintf("compress when ifSpeed:1 LT %d exit %d for 2 then load comp:6%s",
			enterBound, exitBound, wild)},
	}); err != nil {
		return fmt.Errorf("adapt: A rule: %w", err)
	}
	fmt.Fprintf(w, "=== adaptive services (seed %d) ===\n", seed)

	// The B proxy gets its own engine: same EEM server (the A proxy
	// host's ifSpeed:1 IS the shared wireless link), its own client
	// API session, and the B proxy as control surface.
	if err := sys.ArmPolicy(sys.Peer, core.PolicyConfig{
		Period: 250 * time.Millisecond,
		Rules: []string{fmt.Sprintf("expand when ifSpeed:1 LT %d exit %d for 2 then load decomp%s",
			enterBound, exitBound, wild)},
	}); err != nil {
		return fmt.Errorf("adapt: B rule: %w", err)
	}

	// Static plumbing both engines build on: interception and sequence
	// fixing on every wired→mobile stream. The adaptive comp/decomp
	// registrations are appended behind these when the rules fire, so
	// streams spawned during the degraded window get the full chain.
	for _, c := range []string{"load tcp", "load ttsf",
		"add tcp 11.11.10.99 0 11.11.10.10 0", "add ttsf 11.11.10.99 0 11.11.10.10 0"} {
		sys.MustCommand(c)
		sys.Peer.MustCommand(c)
	}
	sys.Sched.RunFor(time.Second)

	inj := faults.NewInjector(sys.Sched, sys.Obs)
	payload := repeatText(120_000)
	leg := func(name string, srcPort, dstPort uint16, window time.Duration) (carried int64, err error) {
		before := sys.Wireless.StatsAB().Bytes
		res, err := sys.CheckedTransfer("adapt: leg "+name, payload, srcPort, dstPort, window)
		if res == nil {
			return 0, err
		}
		carried = sys.Wireless.StatsAB().Bytes - before
		fmt.Fprintf(w, "leg %-10s sent=%d received=%d wireless=%d ratio=%.2f elapsed=%v intact=%v\n",
			name, res.Sent, len(res.Received), carried,
			float64(carried)/float64(res.Sent), res.Elapsed, res.Completed && bytes.Equal(res.Received, payload))
		return carried, err
	}

	// Leg 1: full-quality baseline; the engines stay idle.
	if _, err := leg("baseline", 7000, 7001, 30*time.Second); err != nil {
		return err
	}
	if f, r := policyEvents(sys); f != 0 || r != 0 {
		return fmt.Errorf("adapt: engines acted on a healthy link (fires=%d reverts=%d)", f, r)
	}

	// The link degrades well under the enter bound for 40 s. Both
	// engines must observe it through their PDA pumps, hold for two
	// ticks, and fire.
	inj.DegradeLink("wireless", sys.Wireless, 100*time.Millisecond, 40*time.Second,
		256_000, netsim.Bernoulli{})
	sys.Sched.RunFor(3 * time.Second)
	fires, _ := policyEvents(sys)
	fmt.Fprintf(w, "degraded to 256 kb/s: policy fires=%d\n", fires)
	if fires < 2 {
		return fmt.Errorf("adapt: want both engines fired after degrade, got %d fires", fires)
	}

	// Leg 2: spawned inside the degraded window, so the chain is
	// tcp→ttsf→comp on A and tcp→ttsf→decomp on B. The highly
	// redundant payload must shrink to well under half its size on
	// the wireless hop.
	carried, err := leg("compressed", 7100, 7101, 30*time.Second)
	if err != nil {
		return err
	}
	if carried >= int64(len(payload))/2 {
		return fmt.Errorf("adapt: compressed leg carried %d of %d bytes — compression not in path",
			carried, len(payload))
	}

	// The degrade window expires; the link is back at 2 Mb/s, above
	// the exit bound. Both engines must hold and revert.
	sys.Sched.RunFor(12 * time.Second)
	fires, reverts := policyEvents(sys)
	fmt.Fprintf(w, "restored to 2 Mb/s: policy fires=%d reverts=%d\n", fires, reverts)
	if reverts < 2 {
		return fmt.Errorf("adapt: want both engines reverted after restore, got %d reverts", reverts)
	}

	// Leg 3: the adaptive filters are gone; the full payload rides the
	// air again.
	carried, err = leg("restored", 7200, 7201, 30*time.Second)
	if err != nil {
		return err
	}
	if carried < int64(len(payload))/2 {
		return fmt.Errorf("adapt: restored leg carried only %d of %d bytes — compression still attached",
			carried, len(payload))
	}

	// Engine A rides the A plane's command table; B is queried directly.
	policyTrailer(w, sys, sys.Peer.Policy.Command([]string{"list"}), "policy trace (A)", "adaptive services metrics")
	return nil
}

package faults

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// Chaos is the chaos soak scenario behind `wsim -exp chaos`: a full Comma
// deployment runs a sequence of bulk transfers while the Injector and
// the chaos filter break things around and inside it — link flaps, an
// asymmetric partition, quality degradation, an EEM server crash with
// a supervised client riding it, a panicking filter, an injected
// insertion failure, deterministic drop and delay.
//
// The scenario is its own assertion: it returns an error unless every
// transfer arrives complete and checksum-clean, the panicking filter
// was quarantined (fail open), the supervised EEM client reconnected
// and re-registered after the crash, and the control plane still
// answers afterwards. Everything — fault script, recovery, transfers —
// runs on virtual time with the seeded scheduler, so the full output
// (per-leg results, event log, metrics) must be byte-identical across
// runs with the same seed; TestScenarios digests exactly this output.
func Chaos(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		EEMInterval:  time.Second,
		ObsRetention: 1 << 16,
		Wireless: netsim.LinkConfig{
			Bandwidth: 2e6,
			Delay:     10 * time.Millisecond,
			QueueLen:  32,
			Loss:      netsim.Bernoulli{P: 0.05},
			ARQ:       &netsim.ARQConfig{RetransDelay: 20 * time.Millisecond, MaxRetries: 4},
		},
	})
	RegisterChaosFilter(sys.Catalog)
	inj := NewInjector(sys.Sched, sys.Obs)
	fmt.Fprintf(w, "=== chaos soak (seed %d) ===\n", seed)

	key := func(sp, dp uint16) string {
		return fmt.Sprintf("%v %d %v %d", core.WiredAddr, sp, core.MobileAddr, dp)
	}
	sys.MustCommand("load tcp")
	sys.MustCommand("load chaos")

	// Injected insertion failure: the add must fail with a diagnostic
	// and leave the SP healthy — subsequent commands still work.
	if out := sys.Proxy.Exec("add chaos " + key(6000, 6001) + " err"); !strings.HasPrefix(out, "error") {
		return fmt.Errorf("chaos: err-mode add not rejected: %q", out)
	} else {
		fmt.Fprintf(w, "insertion fault rejected: %s", out)
	}

	// Per-stream fault filters for the legs below.
	sys.MustCommand("add tcp " + key(6000, 6001))
	sys.MustCommand("add chaos " + key(6000, 6001) + " panic")
	sys.MustCommand("add tcp " + key(6100, 6101))
	sys.MustCommand("add chaos " + key(6100, 6101) + " delay 30 5")
	sys.MustCommand("add tcp " + key(6200, 6201))
	sys.MustCommand("add chaos " + key(6200, 6201) + " drop 10")

	// A supervised EEM client rides the whole soak: when the server
	// crashes mid-leg it must back off, redial, and re-register.
	client := eem.NewComma(eem.SimDialer(sys.WiredTCP))
	client.SetObs(sys.Obs)
	client.UseScheduler(sys.Sched)
	if err := client.Supervise(); err != nil {
		return fmt.Errorf("chaos: supervise: %w", err)
	}
	upID := eem.ID{Var: "sysUpTime", Server: core.ProxyCtrlAddr.String()}
	if err := client.Register(upID, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}); err != nil {
		return fmt.Errorf("chaos: register: %w", err)
	}
	sys.Sched.RunFor(500 * time.Millisecond)

	// Each leg schedules its faults a beat after the transfer starts, so
	// the fault lands mid-flight; minElapsed proves the overlap — a
	// transfer that finished faster than the outage it was supposed to
	// ride out never actually met the fault.
	legs := []struct {
		name             string
		srcPort, dstPort uint16
		size             int
		window           time.Duration
		minElapsed       time.Duration
		faults           func()
	}{
		// The panicking filter fires on the first data segments; the
		// proxy must quarantine it and the transfer must still arrive.
		{"panic-quarantine", 6000, 6001, 24 << 10, 8 * time.Second, 0, nil},
		// A 1.5 s full outage in the middle of a delayed, reordered
		// transfer; TCP retransmission rides it out.
		{"link-flap", 6100, 6101, 48 << 10, 12 * time.Second, 1600 * time.Millisecond, func() {
			inj.FlapLink("wireless", sys.Wireless, 100*time.Millisecond, 1500*time.Millisecond)
		}},
		// EEM crash + bandwidth/loss degradation stacked on a stream
		// that is also dropping 10% of its own data. Degradation slows
		// rather than stops the stream, so the floor only proves the
		// transfer ran deep into the degraded window (undergraded it
		// finishes in ~250 ms).
		{"eem-crash+degrade", 6200, 6201, 48 << 10, 12 * time.Second, 600 * time.Millisecond, func() {
			inj.CrashEEM("eem", sys.EEM, 500*time.Millisecond, 3*time.Second)
			inj.DegradeLink("wireless", sys.Wireless, 150*time.Millisecond, 3*time.Second,
				256_000, netsim.Bernoulli{P: 0.25})
		}},
		// One-way blackhole on the data direction.
		{"asym-partition", 6300, 6301, 48 << 10, 10 * time.Second, 900 * time.Millisecond, func() {
			inj.PartitionAB("wireless", sys.Wireless, 100*time.Millisecond, 800*time.Millisecond)
		}},
		// Quiet leg: after the full fault matrix the system must carry
		// a clean transfer at full quality.
		{"clean-recovery", 6400, 6401, 16 << 10, 8 * time.Second, 0, nil},
	}
	for _, lg := range legs {
		if lg.faults != nil {
			lg.faults()
		}
		res, err := sys.CheckedTransfer("chaos: leg "+lg.name, chaosPayload(lg.size), lg.srcPort, lg.dstPort, lg.window)
		if res != nil {
			sum := sha256.Sum256(res.Received)
			fmt.Fprintf(w, "leg %-18s sent=%d received=%d completed=%v elapsed=%v sha=%x intact=%v\n",
				lg.name, res.Sent, len(res.Received), res.Completed, res.Elapsed, sum[:8], err == nil)
		}
		if err != nil {
			return err
		}
		if res.Elapsed < lg.minElapsed {
			return fmt.Errorf("chaos: leg %s finished in %v, before its fault window (%v) — fault missed the transfer",
				lg.name, res.Elapsed, lg.minElapsed)
		}
	}

	// Policy phase: a policy engine rides the same supervised client
	// and drives the SP through a degrade/restore cycle. The wireless
	// bandwidth drops under the rule's enter bound, the engine loads
	// the compress filter; bandwidth recovers, the engine withdraws it.
	// The stream key is deliberately unused so the filter attach is
	// inert on this single-proxy topology.
	fmt.Fprintf(w, "\n=== policy phase ===\n")
	eng := policy.New(policy.Config{
		Sched:   sys.Sched,
		Comma:   client,
		Control: sys.Proxy,
		Server:  core.ProxyCtrlAddr.String(),
		Bus:     sys.Obs,
		Period:  250 * time.Millisecond,
	})
	eng.RegisterMetrics(sys.Metrics, "policy")
	rule := fmt.Sprintf("squeeze when ifSpeed:1 LT 1000000 for 2 then load comp:6 on %v 7777 %v 7778 rate 1",
		core.WiredAddr, core.MobileAddr)
	if err := eng.AddRule(rule); err != nil {
		return fmt.Errorf("chaos: policy rule: %w", err)
	}
	eng.Start()
	inj.DegradeLink("wireless", sys.Wireless, 250*time.Millisecond, 3*time.Second,
		256_000, netsim.Bernoulli{})
	sys.Sched.RunFor(7 * time.Second)
	policyFires, policyReverts := sys.Obs.Count("policy", "fire"), sys.Obs.Count("policy", "revert")
	fmt.Fprintf(w, "policy fires=%d reverts=%d\n", policyFires, policyReverts)
	fmt.Fprint(w, eng.Command([]string{"list"}))
	if policyFires == 0 {
		return fmt.Errorf("chaos: policy engine never fired on the degraded link")
	}
	if policyReverts == 0 {
		return fmt.Errorf("chaos: policy engine never reverted after the link recovered")
	}

	// Recoverability: the control plane answers, the quarantine fired,
	// and the supervised client holds fresh (non-stale) data again.
	report := sys.MustCommand("report")
	fmt.Fprintf(w, "\n=== post-fault control plane ===\n%s", report)
	quarantines := sys.Obs.Count("proxy", "filter-quarantine")
	redials := sys.Obs.Count("eem-client", "redial-scheduled")
	reconnects := sys.Obs.Count("eem-client", "reconnected")
	fmt.Fprintf(w, "quarantines=%d redials=%d reconnects=%d\n", quarantines, redials, reconnects)
	if quarantines == 0 {
		return fmt.Errorf("chaos: panicking filter was never quarantined")
	}
	if reconnects == 0 {
		return fmt.Errorf("chaos: supervised EEM client never reconnected (redials=%d)", redials)
	}
	if _, ok := client.GetValue(upID); !ok || client.Stale(upID) {
		return fmt.Errorf("chaos: EEM client did not recover fresh data (stale=%v)", client.Stale(upID))
	}

	fmt.Fprintf(w, "\n=== obs event log ===\n")
	if err := sys.Obs.WriteLog(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== metrics snapshot ===\n")
	fmt.Fprint(w, sys.Metrics.Table("chaos soak metrics").String())
	return nil
}

// chaosPayload builds a deterministic, position-dependent byte pattern
// so truncation, reordering, and corruption all break the checksum.
func chaosPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + (i>>8)*31 + 7)
	}
	return b
}

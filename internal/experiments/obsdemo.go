package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/netsim"
)

// ObsDemo is the determinism-gate scenario behind `wsim -exp events`: a
// full deployment (wired host, proxy+EEM, lossy ARQ wireless link,
// mobile host, Kati workstation) with packet tracing on, two EEM
// client sessions, and a filtered bulk transfer. It dumps the complete
// observability event log and the unified metrics snapshot.
//
// Everything printed derives from virtual time and the seeded
// scheduler, so two runs with the same seed must be byte-identical —
// TestScenarios digests exactly this output. The scenario deliberately exercises the historical
// nondeterminism sources: multiple EEM sessions ticked every second
// (map-ordered before the ordered-slice fix) and ARQ recovery
// accounting on the lossy link.
func ObsDemo(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed:        seed,
		Topology:    core.TopoKati,
		EEMInterval: time.Second,
		Wireless: netsim.LinkConfig{
			Bandwidth: 2e6,
			Delay:     10 * time.Millisecond,
			QueueLen:  32,
			Loss:      netsim.Bernoulli{P: 0.15},
			ARQ:       &netsim.ARQConfig{RetransDelay: 20 * time.Millisecond, MaxRetries: 4, PDup: 0.1},
		},
	})
	sys.Obs.SetTracePackets(true)

	// Service the transfer stream: tcp bookkeeping plus a 2% random
	// dropper, so the log shows queue builds and filter drops.
	sys.MustCommand("load tcp")
	sys.MustCommand("load rdrop")
	key := fmt.Sprintf("%v 5000 %v 5001", core.WiredAddr, core.MobileAddr)
	sys.MustCommand("add tcp " + key)
	sys.MustCommand("add rdrop " + key + " 2")

	// Two EEM sessions from different hosts, both watching an
	// always-in-range variable (one update per session per tick) plus
	// an interrupt registration. Their per-tick wire order is the
	// determinism hazard the EEM server's ordered session list fixes.
	always := eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}
	userClient := eem.NewComma(eem.SimDialer(sys.UserTCP))
	if err := userClient.Register(eem.ID{Var: "sysUpTime", Server: "11.11.9.1"}, always); err != nil {
		return fmt.Errorf("obsdemo: user register: %w", err)
	}
	// Interrupt-mode registration (WithCallback turns the server-side
	// interrupt flag on); the demo only cares about the wire traffic,
	// so the callback discards the notification.
	if err := userClient.Register(eem.ID{Var: "tcpCurrEstab", Server: "11.11.9.1"},
		eem.Attr{Lower: eem.LongValue(0), Op: eem.GT},
		eem.WithCallback(func(eem.ID, eem.Value) {})); err != nil {
		return fmt.Errorf("obsdemo: user register: %w", err)
	}
	wiredClient := eem.NewComma(eem.SimDialer(sys.WiredTCP))
	if err := wiredClient.Register(eem.ID{Var: "sysUpTime", Server: core.ProxyCtrlAddr.String()}, always); err != nil {
		return fmt.Errorf("obsdemo: wired register: %w", err)
	}
	sys.Sched.RunFor(500 * time.Millisecond)

	// A 16 KB transfer across the lossy wireless link, long enough for
	// a dozen EEM ticks.
	res, err := sys.Transfer(pattern(16*1024), 5000, 5001, 12*time.Second)
	if err != nil {
		return fmt.Errorf("obsdemo: transfer: %w", err)
	}
	fmt.Fprintf(w, "=== obs demo (seed %d) ===\n", seed)
	fmt.Fprintf(w, "transfer: sent=%d received=%d completed=%v elapsed=%v\n\n",
		res.Sent, len(res.Received), res.Completed, res.Elapsed)

	fmt.Fprintf(w, "=== obs event log ===\n")
	if err := sys.Obs.WriteLog(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== metrics snapshot ===\n")
	fmt.Fprint(w, sys.Metrics.Table("comma deployment metrics").String())
	return nil
}

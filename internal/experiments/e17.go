package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/itcp"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

func runE17(seed int64, w io.Writer) error {
	t := trace.NewTable("E17: permanent disconnection at t=1s of a 200 KB transfer (500 kb/s wireless)",
		"proxy model", "sender outcome", "sender believes delivered", "mobile actually got", "silently lost")

	type outcome struct {
		model    string
		sender   string
		believed int64
		received int
		stranded int64
	}
	run := func(model string) outcome {
		sys := core.NewSystem(core.Config{Seed: seed,
			Wireless: netsim.LinkConfig{Bandwidth: 500e3, Delay: 20 * time.Millisecond}})
		var relay *itcp.Relay
		if model == "I-TCP split" {
			relay = sys.ArmRelay(sys.Site, 5001)
		}
		rcvd := 0
		sys.MobileTCP.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd += len(b) } })
		payload := pattern(200_000)
		client, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
		closedClean := false
		client.OnClose = func(err error) { closedClean = err == nil }
		client.OnEstablished = func() { client.Write(payload); client.Close() }
		sys.Sched.RunFor(time.Second)
		sys.Wireless.SetDown(true) // the mobile never comes back
		sys.Sched.RunFor(300 * time.Second)

		o := outcome{model: model, received: rcvd}
		st := client.Stats()
		o.believed = st.BytesAcked
		switch {
		case closedClean:
			o.sender = "completed cleanly"
		case client.State() == tcp.StateClosed:
			o.sender = "failed (reset)"
		default:
			o.sender = fmt.Sprintf("stuck in %v (knows delivery failed)", client.State())
		}
		// Direct TCP strands nothing: acked == delivered.
		if relay != nil {
			o.stranded = relay.Stranded()
		}
		return o
	}

	e2e, split := run("none (end-to-end TCP)"), run("I-TCP split")
	for _, o := range []outcome{e2e, split} {
		t.AddRow(o.model, o.sender, o.believed, o.received, o.stranded)
	}
	t.Fprint(w)
	fmt.Fprintln(w, `
The split connection acknowledged the whole transfer to the sender before the
mobile received it; when the mobile vanished, the data was silently lost while
the sender had already closed successfully. End-to-end TCP (and therefore
every Comma service, which preserves its ack semantics via the TTSF) leaves
the sender stuck with unacknowledged data — it *knows* delivery failed. This
is the §5.1.2 argument for transparent stream modification over splitting.`)
	var c claims
	c.check(e2e.sender != "completed cleanly" && e2e.believed <= int64(e2e.received) && e2e.stranded == 0,
		"E17: want the end-to-end sender not closed and believed ≤ received: %q, %d vs %d B", e2e.sender, e2e.believed, e2e.received)
	c.check(split.sender == "completed cleanly" && split.believed > int64(split.received) && split.stranded > 0,
		"E17: want the split sender closed and believed > received: %q, %d vs %d B", split.sender, split.believed, split.received)
	return c.err()
}

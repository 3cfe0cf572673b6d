package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ip"
	"repro/internal/itcp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// splitRig builds wired — proxy — wireless — mobile with no service
// proxy, optionally attaching an I-TCP relay on the middle node.
type splitRig struct {
	sched          *sim.Scheduler
	wired, mobile  *netsim.Node
	wStack, mStack *tcp.Stack
	relay          *itcp.Relay
	wless          *netsim.Link
	proxyNode      *netsim.Node
}

func newSplitRig(seed int64, wireless netsim.LinkConfig, withRelay bool) *splitRig {
	s := sim.NewScheduler(seed)
	n := netsim.New(s)
	w := n.AddNode("wired")
	p := n.AddNode("proxy")
	m := n.AddNode("mobile")
	p.Forwarding = true
	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 2 * time.Millisecond}
	wiredA := ip.MustParseAddr("11.11.10.99")
	proxyA := ip.MustParseAddr("11.11.10.1")
	mobileA := ip.MustParseAddr("11.11.10.10")
	lw := n.Connect(w, wiredA, p, proxyA, wire)
	lm := n.Connect(p, ip.MustParseAddr("11.11.11.1"), m, mobileA, wireless)
	w.AddDefaultRoute(lw.IfaceA())
	m.AddDefaultRoute(lm.IfaceB())
	p.AddRoute(mobileA.Mask(32), 32, lm.IfaceA())

	r := &splitRig{sched: s, wired: w, mobile: m, wless: lm, proxyNode: p}
	r.wStack = tcp.NewStack(w, tcp.Config{})
	r.mStack = tcp.NewStack(m, tcp.Config{})
	w.RegisterProto(ip.ProtoTCP, func(h ip.Header, pl, raw []byte, in *netsim.Iface) { r.wStack.Deliver(h.Src, h.Dst, pl) })
	m.RegisterProto(ip.ProtoTCP, func(h ip.Header, pl, raw []byte, in *netsim.Iface) { r.mStack.Deliver(h.Src, h.Dst, pl) })
	if withRelay {
		relay, err := itcp.New(p, mobileA, []uint16{5001})
		if err != nil {
			panic(err)
		}
		r.relay = relay
	}
	return r
}

func runE17(seed int64, w io.Writer) error {
	t := trace.NewTable("E17: permanent disconnection at t=1s of a 200 KB transfer (500 kb/s wireless)",
		"proxy model", "sender outcome", "sender believes delivered", "mobile actually got", "silently lost")
	mobileA := ip.MustParseAddr("11.11.10.10")

	type outcome struct {
		model    string
		sender   string
		believed int64
		received int
		stranded int64
	}
	run := func(model string) outcome {
		wireless := netsim.LinkConfig{Bandwidth: 500e3, Delay: 20 * time.Millisecond}
		r := newSplitRig(seed, wireless, model == "I-TCP split")
		rcvd := 0
		r.mStack.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd += len(b) } })
		payload := pattern(200_000)
		client, _ := r.wStack.Connect(mobileA, 5001)
		closedClean := false
		client.OnClose = func(err error) { closedClean = err == nil }
		client.OnEstablished = func() { client.Write(payload); client.Close() }
		r.sched.RunFor(time.Second)
		r.wless.SetDown(true) // the mobile never comes back
		r.sched.RunFor(300 * time.Second)

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
		if r.relay != nil {
			o.stranded = r.relay.Stranded()
		} else {
			o.stranded = 0 // direct TCP: acked == delivered, nothing silent
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

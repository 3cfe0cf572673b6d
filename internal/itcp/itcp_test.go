package itcp_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/itcp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

var (
	wiredAddr  = ip.MustParseAddr("11.11.10.99")
	proxyAddr  = ip.MustParseAddr("11.11.10.1")
	mobileAddr = ip.MustParseAddr("11.11.10.10")
)

// itcpRig: wired — proxy(relay) — wireless — mobile, no service proxy.
type itcpRig struct {
	sched          *sim.Scheduler
	wired, mobile  *netsim.Node
	wStack, mStack *tcp.Stack
	relay          *itcp.Relay
	wless          *netsim.Link
}

func newITCPRig(t *testing.T, wireless netsim.LinkConfig) *itcpRig {
	t.Helper()
	s := sim.NewScheduler(3)
	n := netsim.New(s)
	w := n.AddNode("wired")
	p := n.AddNode("proxy")
	m := n.AddNode("mobile")
	p.Forwarding = true
	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 2 * time.Millisecond}
	lw := n.Connect(w, wiredAddr, p, proxyAddr, wire)
	lm := n.Connect(p, ip.MustParseAddr("11.11.11.1"), m, mobileAddr, wireless)
	w.AddDefaultRoute(lw.IfaceA())
	m.AddDefaultRoute(lm.IfaceB())
	p.AddRoute(mobileAddr.Mask(32), 32, lm.IfaceA())

	r := &itcpRig{sched: s, wired: w, mobile: m, wless: lm}
	r.wStack = tcp.NewStack(w, tcp.Config{})
	r.mStack = tcp.NewStack(m, tcp.Config{})
	w.RegisterProto(ip.ProtoTCP, func(h ip.Header, pl, raw []byte, in *netsim.Iface) { r.wStack.Deliver(h.Src, h.Dst, pl) })
	m.RegisterProto(ip.ProtoTCP, func(h ip.Header, pl, raw []byte, in *netsim.Iface) { r.mStack.Deliver(h.Src, h.Dst, pl) })

	relay, err := itcp.New(p, mobileAddr, []uint16{5001})
	if err != nil {
		t.Fatal(err)
	}
	r.relay = relay
	return r
}

func TestSplitConnectionRelaysData(t *testing.T) {
	r := newITCPRig(t, netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond})
	var rcvd bytes.Buffer
	r.mStack.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	client, _ := r.wStack.Connect(mobileAddr, 5001)
	closed := false
	client.OnClose = func(error) { closed = true }
	client.OnEstablished = func() { client.Write(payload); client.Close() }
	r.sched.RunFor(120 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), payload) {
		t.Fatalf("relayed %d of %d bytes", rcvd.Len(), len(payload))
	}
	if !closed {
		t.Fatal("wired side never closed")
	}
	if r.relay.Stats.Accepted != 1 {
		t.Fatalf("accepted = %d", r.relay.Stats.Accepted)
	}
	if got := r.relay.Stranded(); got != 0 {
		t.Fatalf("healthy relay stranded %d bytes", got)
	}
}

func TestSplitConnectionSurvivesWirelessLoss(t *testing.T) {
	r := newITCPRig(t, netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond,
		Loss: netsim.Bernoulli{P: 0.08}, QueueLen: 200})
	var rcvd bytes.Buffer
	r.mStack.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	payload := make([]byte, 150_000)
	client, _ := r.wStack.Connect(mobileAddr, 5001)
	client.OnEstablished = func() { client.Write(payload) }
	r.sched.RunFor(300 * time.Second)
	if rcvd.Len() != len(payload) {
		t.Fatalf("relayed %d of %d bytes over lossy link", rcvd.Len(), len(payload))
	}
	// The wired sender must have been insulated: its connection never
	// saw the wireless losses (at most a handful of retransmits on the
	// clean wire).
	if client.Stats().Retransmits > 2 {
		t.Fatalf("wired sender saw wireless loss: %+v", client.Stats())
	}
}

func TestEndToEndSemanticsViolation(t *testing.T) {
	// The §5.1.2 hazard: the wired sender's data is fully acknowledged
	// by the proxy; then the mobile disconnects permanently. The
	// sender believes everything was delivered; it was not.
	r := newITCPRig(t, netsim.LinkConfig{Bandwidth: 500e3, Delay: 20 * time.Millisecond})
	var rcvd bytes.Buffer
	r.mStack.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	payload := make([]byte, 200_000)
	client, _ := r.wStack.Connect(mobileAddr, 5001)
	senderDone := false
	client.OnClose = func(err error) {
		if err == nil {
			senderDone = true
		}
	}
	client.OnEstablished = func() { client.Write(payload); client.Close() }

	// The wired half drains into the relay at 100 Mb/s almost
	// instantly; the 500 kb/s wireless half lags far behind. Cut the
	// wireless link for good mid-transfer.
	r.sched.RunFor(1 * time.Second)
	r.wless.SetDown(true)
	r.sched.RunFor(180 * time.Second)

	if !senderDone {
		t.Fatalf("wired sender did not complete cleanly (stats %+v)", client.Stats())
	}
	if rcvd.Len() >= len(payload) {
		t.Fatal("mobile somehow received everything")
	}
	stranded := r.relay.Stranded()
	if stranded == 0 {
		t.Fatal("no stranded bytes recorded despite permanent loss")
	}
	t.Logf("sender completed cleanly; mobile got %d of %d bytes; %d bytes stranded at the proxy",
		rcvd.Len(), len(payload), stranded)
}

func TestEchoThroughRelay(t *testing.T) {
	// Reverse-direction data flows too (mobile responses).
	r := newITCPRig(t, netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond})
	r.mStack.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { c.Write(bytes.ToUpper(b)) }
	})
	var got bytes.Buffer
	client, _ := r.wStack.Connect(mobileAddr, 5001)
	client.OnData = func(b []byte) { got.Write(b) }
	client.OnEstablished = func() { client.Write([]byte("hello relay")) }
	r.sched.RunFor(10 * time.Second)
	if got.String() != "HELLO RELAY" {
		t.Fatalf("echo = %q", got.String())
	}
}

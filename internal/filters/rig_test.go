package filters_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// rig builds the thesis's reference topology:
//
//	wired host ── fast wire ── proxy (router) ── wireless ── mobile
//
// and optionally a second proxy in front of the mobile for
// double-proxy services (§10.2.4):
//
//	wired ── wire ── proxyA ── wireless ── proxyB ── wire ── mobile
type rig struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	wired  *netsim.Node
	mobile *netsim.Node
	proxyA *proxy.Proxy
	proxyB *proxy.Proxy // nil unless double-proxy
	wless  *netsim.Link // the wireless link

	wStack, mStack *tcp.Stack
	wUDP, mUDP     *udp.Stack
}

var (
	wiredAddr  = ip.MustParseAddr("11.11.10.99")
	mobileAddr = ip.MustParseAddr("11.11.10.10")
)

type rigOpts struct {
	seed        int64
	wireless    netsim.LinkConfig
	doubleProxy bool
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	if o.seed == 0 {
		o.seed = 1
	}
	s := sim.NewScheduler(o.seed)
	n := netsim.New(s)
	r := &rig{sched: s, net: n}
	r.wired = n.AddNode("wired")
	pa := n.AddNode("proxyA")
	pa.Forwarding = true
	r.mobile = n.AddNode("mobile")

	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 2 * time.Millisecond}
	n.Connect(r.wired, wiredAddr, pa, ip.MustParseAddr("10.0.1.254"), wire)
	r.wired.AddDefaultRoute(r.wired.Ifaces()[0])

	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	r.proxyA = proxy.New(pa, cat)

	if o.doubleProxy {
		pb := n.AddNode("proxyB")
		pb.Forwarding = true
		lw := n.Connect(pa, ip.MustParseAddr("10.0.2.1"), pb, ip.MustParseAddr("10.0.2.2"), o.wireless)
		r.wless = lw
		lm := n.Connect(pb, ip.MustParseAddr("10.0.3.254"), r.mobile, mobileAddr, wire)
		pa.AddRoute(mobileAddr.Mask(32), 32, lw.IfaceA())
		pa.AddRoute(ip.MustParseAddr("10.0.3.0"), 24, lw.IfaceA())
		pb.AddDefaultRoute(lw.IfaceB())
		pb.AddRoute(mobileAddr.Mask(32), 32, lm.IfaceA())
		r.mobile.AddDefaultRoute(r.mobile.Ifaces()[0])
		cat2 := filter.NewCatalog()
		filters.RegisterAll(cat2)
		r.proxyB = proxy.New(pb, cat2)
	} else {
		lw := n.Connect(pa, ip.MustParseAddr("10.0.2.254"), r.mobile, mobileAddr, o.wireless)
		r.wless = lw
		pa.AddRoute(mobileAddr.Mask(32), 32, lw.IfaceA())
		r.mobile.AddDefaultRoute(r.mobile.Ifaces()[0])
	}

	r.wStack = tcp.NewStack(r.wired, tcp.Config{})
	r.mStack = tcp.NewStack(r.mobile, tcp.Config{})
	r.wUDP = udp.NewStack(r.wired)
	r.mUDP = udp.NewStack(r.mobile)
	r.wired.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		r.wStack.Deliver(h.Src, h.Dst, p)
	})
	r.mobile.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		r.mStack.Deliver(h.Src, h.Dst, p)
	})
	r.wired.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		r.wUDP.Deliver(h.Src, h.Dst, p)
	})
	r.mobile.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		r.mUDP.Deliver(h.Src, h.Dst, p)
	})
	return r
}

// cmd runs a proxy command and fails the test on an error response.
func (r *rig) cmd(t *testing.T, p *proxy.Proxy, line string) string {
	t.Helper()
	out := p.Exec(line)
	if len(out) >= 5 && out[:5] == "error" {
		t.Fatalf("proxy command %q: %s", line, out)
	}
	return out
}

// transfer pushes payload from the wired host to port 5001 on the
// mobile and returns what the mobile's application received.
func (r *rig) transfer(t *testing.T, payload []byte, d time.Duration) ([]byte, *tcp.Conn) {
	t.Helper()
	var rcvd bytes.Buffer
	_, err := r.mStack.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := r.wStack.ConnectFrom(7, mobileAddr, 5001)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() {
		client.Write(payload)
		client.Close()
	}
	r.sched.RunFor(d)
	return rcvd.Bytes(), client
}

// mUDPSend sends a UDP datagram from the mobile.
func (r *rig) mUDPSend(srcPort uint16, dst ip.Addr, dstPort uint16, payload []byte) {
	r.mUDP.Send(srcPort, dst, dstPort, payload)
}

// mUDPRigSendWired sends a UDP datagram from the wired host to the
// mobile.
func (r *rig) mUDPRigSendWired(srcPort, dstPort uint16, payload []byte) {
	r.wUDP.Send(srcPort, mobileAddr, dstPort, payload)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/253)
	}
	return b
}

package mobileip_test

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// topo builds the canonical Mobile IP topology of thesis Fig 2.1:
//
//	correspondent ── internet ── homeAgent    (home network)
//	                    │
//	                    ├── fa1 ── wireless cell 1
//	                    └── fa2 ── wireless cell 2
//
// The mobile starts attached to cell 1.
type topo struct {
	sched        *sim.Scheduler
	net          *netsim.Network
	corr, inet   *netsim.Node
	haNode       *netsim.Node
	fa1Node      *netsim.Node
	fa2Node      *netsim.Node
	mobileNode   *netsim.Node
	ha           *mobileip.HomeAgent
	fa1, fa2     *mobileip.ForeignAgent
	mob          *mobileip.Mobile
	cell1, cell2 *netsim.Link
}

var (
	corrAddr   = ip.MustParseAddr("1.1.1.1")
	haAddr     = ip.MustParseAddr("10.0.0.254")
	mobileHome = ip.MustParseAddr("10.0.0.99") // mobile's permanent address
	fa1CareOf  = ip.MustParseAddr("20.0.0.254")
	fa2CareOf  = ip.MustParseAddr("30.0.0.254")
)

func newTopo(t *testing.T) *topo {
	t.Helper()
	s := sim.NewScheduler(5)
	n := netsim.New(s)
	tp := &topo{sched: s, net: n}
	tp.corr = n.AddNode("correspondent")
	tp.inet = n.AddNode("internet")
	tp.haNode = n.AddNode("ha")
	tp.fa1Node = n.AddNode("fa1")
	tp.fa2Node = n.AddNode("fa2")
	tp.mobileNode = n.AddNode("mobile")
	for _, nd := range []*netsim.Node{tp.inet, tp.haNode, tp.fa1Node, tp.fa2Node} {
		nd.Forwarding = true
	}

	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 5 * time.Millisecond}
	lc := n.Connect(tp.corr, corrAddr, tp.inet, ip.MustParseAddr("1.1.1.254"), wire)
	lh := n.Connect(tp.inet, ip.MustParseAddr("10.0.1.1"), tp.haNode, haAddr, wire)
	l1 := n.Connect(tp.inet, ip.MustParseAddr("20.0.1.1"), tp.fa1Node, fa1CareOf, wire)
	l2 := n.Connect(tp.inet, ip.MustParseAddr("30.0.1.1"), tp.fa2Node, fa2CareOf, wire)

	tp.corr.AddDefaultRoute(lc.IfaceA())
	tp.inet.AddRoute(ip.MustParseAddr("10.0.0.0"), 16, lh.IfaceA())
	tp.inet.AddRoute(ip.MustParseAddr("20.0.0.0"), 16, l1.IfaceA())
	tp.inet.AddRoute(ip.MustParseAddr("30.0.0.0"), 16, l2.IfaceA())
	tp.inet.AddRoute(ip.MustParseAddr("1.1.1.0"), 24, lc.IfaceB())
	tp.haNode.AddDefaultRoute(lh.IfaceB())
	tp.fa1Node.AddDefaultRoute(l1.IfaceB())
	tp.fa2Node.AddDefaultRoute(l2.IfaceB())

	tp.ha = mobileip.NewHomeAgent(tp.haNode)
	tp.fa1 = mobileip.NewForeignAgent(tp.fa1Node, fa1CareOf)
	tp.fa2 = mobileip.NewForeignAgent(tp.fa2Node, fa2CareOf)
	tp.mob = mobileip.NewMobile(tp.mobileNode, haAddr, mobileHome)

	// Mobile starts in cell 1.
	wireless := netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond}
	tp.cell1 = n.Connect(tp.fa1Node, ip.MustParseAddr("20.0.0.1"), tp.mobileNode, mobileHome, wireless)
	tp.mobileNode.AddDefaultRoute(tp.mobileNode.Ifaces()[0])
	return tp
}

// handoff moves the mobile from cell 1 to cell 2.
func (tp *topo) handoff(t *testing.T) {
	t.Helper()
	tp.net.Disconnect(tp.cell1)
	tp.mobileNode.ClearRoutes()
	wireless := netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond}
	tp.cell2 = tp.net.Connect(tp.fa2Node, ip.MustParseAddr("30.0.0.1"), tp.mobileNode, mobileHome, wireless)
	tp.mobileNode.AddDefaultRoute(tp.mobileNode.Ifaces()[0])
	tp.mob.Solicit()
}

func TestRegistrationViaAdvertisement(t *testing.T) {
	tp := newTopo(t)
	registered := ip.Addr(0)
	tp.mob.OnRegistered = func(careOf ip.Addr) { registered = careOf }
	tp.fa1.StartAdvertising(time.Second)
	tp.sched.RunFor(3 * time.Second)
	tp.fa1.StopAdvertising()
	if registered != fa1CareOf {
		t.Fatalf("mobile registered care-of %v, want %v", registered, fa1CareOf)
	}
	// The home agent's binding shows as its tunnel: a datagram for the
	// mobile's home address comes out of fa1's decapsulation.
	haBefore, faBefore := tp.ha.Tunneled, tp.fa1.Decapsulated
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("bound"))
	tp.sched.RunFor(time.Second)
	if tp.ha.Tunneled != haBefore+1 || tp.fa1.Decapsulated != faBefore+1 {
		t.Fatalf("HA tunneled %d, fa1 decapsulated %d, want one more each than %d and %d",
			tp.ha.Tunneled, tp.fa1.Decapsulated, haBefore, faBefore)
	}
	if tp.mob.Registrations != 1 {
		t.Fatalf("registrations = %d", tp.mob.Registrations)
	}
}

func TestTunneledDelivery(t *testing.T) {
	tp := newTopo(t)
	tp.fa1.StartAdvertising(time.Second)
	tp.sched.RunFor(3 * time.Second)
	tp.fa1.StopAdvertising()

	var got []byte
	tp.mobileNode.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, in *netsim.Iface) {
		got = payload
		if h.Src != corrAddr || h.Dst != mobileHome {
			t.Errorf("inner header %v -> %v", h.Src, h.Dst)
		}
	})
	haBefore, faBefore := tp.ha.Tunneled, tp.fa1.Decapsulated
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("to the mobile"))
	tp.sched.RunFor(time.Second)
	if string(got) != "to the mobile" {
		t.Fatalf("mobile got %q", got)
	}
	if tp.ha.Tunneled != haBefore+1 || tp.fa1.Decapsulated != faBefore+1 {
		t.Fatalf("tunnel counters: ha=%d fa=%d", tp.ha.Tunneled, tp.fa1.Decapsulated)
	}
}

func TestReversePathIsDirect(t *testing.T) {
	// Triangular routing: mobile → correspondent does NOT pass the HA.
	tp := newTopo(t)
	tp.fa1.StartAdvertising(time.Second)
	tp.sched.RunFor(3 * time.Second)

	got := false
	tp.corr.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, in *netsim.Iface) {
		got = true
	})
	before := tp.haNode.Stats.IPForwDatagrams
	tp.mobileNode.SendIPFrom(mobileHome, corrAddr, ip.ProtoUDP, []byte("up"))
	tp.sched.RunFor(time.Second)
	if !got {
		t.Fatal("correspondent never received the uplink packet")
	}
	if tp.haNode.Stats.IPForwDatagrams != before {
		t.Fatal("uplink packet was routed through the home agent")
	}
}

func TestHandoffReregistersAndRestoresDelivery(t *testing.T) {
	tp := newTopo(t)
	tp.fa1.StartAdvertising(500 * time.Millisecond)
	tp.fa2.StartAdvertising(500 * time.Millisecond)
	tp.sched.RunFor(2 * time.Second)

	delivered := 0
	tp.mobileNode.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) { delivered++ })
	fa1Before := tp.fa1.Decapsulated
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("before handoff"))
	tp.sched.RunFor(time.Second)
	if delivered != 1 || tp.fa1.Decapsulated != fa1Before+1 || tp.fa2.Decapsulated != 0 {
		t.Fatalf("before handoff: delivered %d, fa1 decapsulated %d more, fa2 %d, want 1, 1, 0",
			delivered, tp.fa1.Decapsulated-fa1Before, tp.fa2.Decapsulated)
	}

	tp.handoff(t)
	tp.sched.RunFor(2 * time.Second)
	if tp.mob.Handoffs != 1 {
		t.Fatalf("handoffs = %d", tp.mob.Handoffs)
	}
	fa1Before, fa2Before := tp.fa1.Decapsulated, tp.fa2.Decapsulated
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("after handoff"))
	tp.sched.RunFor(time.Second)
	if delivered != 2 || tp.fa1.Decapsulated != fa1Before || tp.fa2.Decapsulated != fa2Before+1 {
		t.Fatalf("after handoff: delivered %d, fa1 decapsulated %d more, fa2 %d more, want 2, 0, 1",
			delivered, tp.fa1.Decapsulated-fa1Before, tp.fa2.Decapsulated-fa2Before)
	}
}

func TestPacketsLostDuringHandoffGap(t *testing.T) {
	// Packets sent between detachment and re-registration arrive at
	// the old FA and are lost (thesis §2.1's second drawback).
	tp := newTopo(t)
	tp.fa1.StartAdvertising(500 * time.Millisecond)
	tp.sched.RunFor(2 * time.Second)
	tp.fa1.StopAdvertising()

	delivered := 0
	tp.mobileNode.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) { delivered++ })

	tp.net.Disconnect(tp.cell1)
	tp.mobileNode.ClearRoutes()
	// In the gap: traffic still tunnels to fa1, vanishing on the dead
	// cell link.
	for i := 0; i < 5; i++ {
		tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("lost"))
	}
	tp.sched.RunFor(time.Second)
	if delivered != 0 {
		t.Fatalf("%d packets survived the handoff gap", delivered)
	}
}

func TestTriangularRoutingPenalty(t *testing.T) {
	// RTT via the HA exceeds direct RTT; the binding-cache route
	// optimization recovers the direct path (thesis §2.1).
	tp := newTopo(t)
	tp.fa1.StartAdvertising(500 * time.Millisecond)
	tp.sched.RunFor(2 * time.Second)
	tp.fa1.StopAdvertising()

	// Measure one-way delivery time via HA tunneling.
	var arrive sim.Time
	tp.mobileNode.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *netsim.Iface) {
		arrive = tp.sched.Now()
	})
	start := tp.sched.Now()
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("x"))
	tp.sched.RunFor(time.Second)
	triangular := arrive.Sub(start)

	// Now with a binding cache on the correspondent.
	bc := mobileip.NewBindingCache(tp.corr)
	bc.Learn(mobileHome, fa1CareOf, time.Minute)
	send := bc.WrapSend()
	start = tp.sched.Now()
	send(mobileHome, ip.ProtoUDP, []byte("y"))
	tp.sched.RunFor(time.Second)
	direct := arrive.Sub(start)

	t.Logf("triangular %v, optimized %v", triangular, direct)
	if direct >= triangular {
		t.Fatalf("route optimization not faster: %v vs %v", direct, triangular)
	}
	if bc.DirectTunneled != 1 {
		t.Fatalf("DirectTunneled = %d", bc.DirectTunneled)
	}
}

func TestBindingExpiry(t *testing.T) {
	tp := newTopo(t)
	tp.ha.Register(mobileHome, fa1CareOf, time.Second)
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("live"))
	tp.sched.RunFor(100 * time.Millisecond)
	if tp.ha.Tunneled != 1 || tp.ha.NoBinding != 0 {
		t.Fatalf("fresh binding: tunneled %d, no binding %d, want 1 and 0", tp.ha.Tunneled, tp.ha.NoBinding)
	}
	tp.sched.RunFor(2 * time.Second)
	tp.corr.SendIP(mobileHome, ip.ProtoUDP, []byte("expired"))
	tp.sched.RunFor(100 * time.Millisecond)
	if tp.ha.Tunneled != 1 || tp.ha.NoBinding == 0 {
		t.Fatalf("expired binding: tunneled %d, no binding %d, want 1 and some", tp.ha.Tunneled, tp.ha.NoBinding)
	}
}

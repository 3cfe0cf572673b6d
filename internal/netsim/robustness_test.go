package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestPerDirectionDown covers the asymmetric link-down state: taking
// only the a→b direction down must leave b→a traffic flowing, the
// per-direction getters must disagree, and Down() must report the link
// as not fully operational.
func TestPerDirectionDown(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{})
	var aGot, bGot int
	a.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { aGot++ })
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { bGot++ })
	link := a.Ifaces()[0].Link()

	link.SetDownAB(true)
	if !link.Down() {
		t.Fatal("Down() = false with the a→b direction disabled")
	}
	if !link.DownAB() || link.DownBA() {
		t.Fatalf("DownAB=%v DownBA=%v, want true/false", link.DownAB(), link.DownBA())
	}
	b.SendIP(a.Addr(), ip.ProtoUDP, []byte("reverse"))
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("forward"))
	s.Run()
	if aGot != 1 {
		t.Fatalf("b→a delivered %d packets with only a→b down, want 1", aGot)
	}
	if bGot != 0 {
		t.Fatalf("a→b delivered %d packets while down, want 0", bGot)
	}

	// Restoring the direction restores the forward path; the symmetric
	// setter still clears everything.
	link.SetDownAB(false)
	if link.Down() {
		t.Fatal("Down() = true after restoring the only disabled direction")
	}
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("forward2"))
	s.Run()
	if bGot != 1 {
		t.Fatalf("a→b delivered %d after restore, want 1", bGot)
	}
	link.SetDown(true)
	if !link.DownAB() || !link.DownBA() || !link.Down() {
		t.Fatal("SetDown(true) must disable both directions")
	}
	link.SetDown(false)
	if link.DownAB() || link.DownBA() || link.Down() {
		t.Fatal("SetDown(false) must re-enable both directions")
	}
}

// TestGilbertElliottStateTransitions drives the two-state model with a
// seeded RNG through good→bad→good cycles and checks the long-run drop
// rate against the analytic stationary value.
func TestGilbertElliottStateTransitions(t *testing.T) {
	g := &GilbertElliott{PGB: 0.1, PBG: 0.3, PBad: 0.9}
	rng := rand.New(rand.NewSource(99))

	transitions := 0
	wasBad := false
	drops := 0
	const n = 200000
	for i := 0; i < n; i++ {
		dropped := g.Drop(rng, 100)
		if dropped {
			drops++
		}
		if g.bad != wasBad {
			transitions++
			wasBad = g.bad
		}
	}
	// Both states must be visited repeatedly: a full good→bad→good
	// cycle is two transitions, and with PGB=0.1/PBG=0.3 thousands of
	// cycles fit in 200k packets.
	if transitions < 100 {
		t.Fatalf("only %d state transitions in %d packets, model stuck", transitions, n)
	}
	// Stationary bad-state probability is PGB/(PGB+PBG) = 0.25, so the
	// expected drop rate is 0.25 * PBad = 0.225. Allow a generous
	// tolerance for transition-edge effects.
	rate := float64(drops) / float64(n)
	if rate < 0.18 || rate > 0.27 {
		t.Fatalf("drop rate %.4f outside [0.18, 0.27] (expected ≈0.225)", rate)
	}
}

// TestGilbertElliottDeterminism pins that two models driven by
// identically seeded RNGs emit identical drop sequences — the property
// every chaos-run reproducibility claim rests on.
func TestGilbertElliottDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		g := &GilbertElliott{PGB: 0.05, PBG: 0.2, PBad: 0.8}
		rng := rand.New(rand.NewSource(seed))
		out := make([]bool, 5000)
		for i := range out {
			out[i] = g.Drop(rng, 1400)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop sequence diverged at packet %d for identical seeds", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 5000-packet drop sequences")
	}
}

// TestRoutingSkipsTxDownDirection verifies route lookup consults the
// transmit direction only: a prefix route whose egress direction is
// down is skipped (the packet has nowhere to go), while a route whose
// *reverse* direction is down still carries outbound traffic.
func TestRoutingSkipsTxDownDirection(t *testing.T) {
	s := sim.NewScheduler(3)
	n := New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	link := n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), LinkConfig{})
	dst := ip.MustParseAddr("10.9.0.1") // not the peer: forces route lookup
	a.AddRoute(dst.Mask(24), 24, link.IfaceA())
	b.AddRoute(dst.Mask(24), 24, link.IfaceB())

	// Only a→b down: b's route, whose egress is b→a, is still usable;
	// a's, whose egress is a→b, is not.
	link.SetDownAB(true)
	b.SendIP(dst, ip.ProtoUDP, []byte("x"))
	if b.Stats.IPOutNoRoutes != 0 {
		t.Fatalf("route skipped with only the reverse direction down")
	}
	a.SendIP(dst, ip.ProtoUDP, []byte("y"))
	if a.Stats.IPOutNoRoutes != 1 {
		t.Fatalf("IPOutNoRoutes = %d with the egress direction down, want 1", a.Stats.IPOutNoRoutes)
	}
	s.Run()
}

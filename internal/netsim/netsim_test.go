package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

func twoHosts(t *testing.T, cfg LinkConfig) (*sim.Scheduler, *Network, *Node, *Node) {
	t.Helper()
	s := sim.NewScheduler(1)
	n := New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), cfg)
	return s, n, a, b
}

func TestDirectDelivery(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{})
	var got []byte
	b.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, in *Iface) {
		got = bytes.Clone(payload) // payload dies with the handler
		if h.Src != a.Addr() {
			t.Errorf("src = %v", h.Src)
		}
	})
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("hi"))
	s.Run()
	if string(got) != "hi" {
		t.Fatalf("payload = %q", got)
	}
}

func TestLinkDelayAndSerialization(t *testing.T) {
	// 1000-byte packet over 1 Mb/s with 10ms delay: 8ms serialize + 10ms.
	s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6, Delay: 10 * time.Millisecond})
	var arrival sim.Time
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { arrival = s.Now() })
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 1000-ip.HeaderLen))
	s.Run()
	want := sim.Time(18 * time.Millisecond)
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestQueueingBackToBack(t *testing.T) {
	// Two packets sent at once: the second waits for the first to
	// serialize.
	s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6, Delay: time.Millisecond})
	var arrivals []sim.Time
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { arrivals = append(arrivals, s.Now()) })
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 980)) // 1000B on wire = 8ms
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 980))
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != sim.Time(9*time.Millisecond) || arrivals[1] != sim.Time(17*time.Millisecond) {
		t.Fatalf("arrivals = %v, want 9ms and 17ms", arrivals)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6, QueueLen: 4})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	for i := 0; i < 10; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 500))
	}
	s.Run()
	if delivered != 4 {
		t.Fatalf("delivered = %d, want 4 (queue cap)", delivered)
	}
	st := a.Ifaces()[0].Link().StatsAB()
	if st.QueueDrops != 6 {
		t.Fatalf("QueueDrops = %d, want 6", st.QueueDrops)
	}
}

// throughRouter builds a - r - b with r forwarding; cfgAR governs the
// a-r link.
func throughRouter(cfgAR LinkConfig) (*sim.Scheduler, *Node, *Node, *Node) {
	s := sim.NewScheduler(1)
	n := New(s)
	a, r, b := n.AddNode("a"), n.AddNode("r"), n.AddNode("b")
	r.Forwarding = true
	n.Connect(a, ip.MustParseAddr("10.0.1.1"), r, ip.MustParseAddr("10.0.1.254"), cfgAR)
	lb := n.Connect(r, ip.MustParseAddr("10.0.2.254"), b, ip.MustParseAddr("10.0.2.1"), LinkConfig{})
	a.AddDefaultRoute(a.Ifaces()[0])
	b.AddDefaultRoute(b.Ifaces()[0])
	r.AddRoute(ip.MustParseAddr("10.0.2.0"), 24, lb.a)
	return s, a, r, b
}

func TestForwardingThroughRouter(t *testing.T) {
	s, a, r, b := throughRouter(LinkConfig{})
	var got ip.Header
	b.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, in *Iface) { got = h })
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("via router"))
	s.Run()
	if got.Src != a.Addr() || got.Dst != b.Addr() {
		t.Fatalf("packet not forwarded: %+v", got)
	}
	if got.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", got.TTL)
	}
	if r.Stats.IPForwDatagrams != 1 {
		t.Fatalf("IPForwDatagrams = %d", r.Stats.IPForwDatagrams)
	}
}

func TestHostDropsTransit(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s)
	a := n.AddNode("a")
	h := n.AddNode("h") // plain host, not forwarding
	c := n.AddNode("c")
	n.Connect(a, ip.MustParseAddr("10.0.1.1"), h, ip.MustParseAddr("10.0.1.2"), LinkConfig{})
	lhc := n.Connect(h, ip.MustParseAddr("10.0.2.1"), c, ip.MustParseAddr("10.0.2.2"), LinkConfig{})
	a.AddDefaultRoute(a.Ifaces()[0])
	h.AddRoute(ip.MustParseAddr("10.0.2.0"), 24, lhc.a)
	delivered := false
	c.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered = true })
	a.SendIP(c.Addr(), ip.ProtoUDP, []byte("x"))
	s.Run()
	if delivered {
		t.Fatal("non-forwarding host relayed a transit packet")
	}
	if h.Stats.IPInAddrErrors != 1 {
		t.Fatalf("IPInAddrErrors = %d", h.Stats.IPInAddrErrors)
	}
}

func TestHookInterceptsAndRewrites(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{})
	b.SetHook(func(raw []byte, in *Iface) [][]byte {
		h, payload, err := ip.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) == "drop me" {
			return nil
		}
		out, _ := h.Marshal([]byte("rewritten"))
		return [][]byte{out}
	})
	var got []string
	b.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, in *Iface) {
		got = append(got, string(payload))
	})
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("drop me"))
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("keep me"))
	s.Run()
	if len(got) != 1 || got[0] != "rewritten" {
		t.Fatalf("got = %v", got)
	}
}

func TestBernoulliLoss(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{Loss: Bernoulli{P: 0.5}, QueueLen: 10000})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("x"))
	}
	s.Run()
	if delivered < total*4/10 || delivered > total*6/10 {
		t.Fatalf("delivered = %d of %d with p=0.5", delivered, total)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	g := &GilbertElliott{PGB: 0.1, PBG: 0.3, PBad: 1.0}
	rng := rand.New(rand.NewSource(7))
	losses := 0
	bursts := 0
	inBurst := false
	for i := 0; i < 10000; i++ {
		if g.Drop(rng, 100) {
			losses++
			if !inBurst {
				bursts++
				inBurst = true
			}
		} else {
			inBurst = false
		}
	}
	if losses == 0 || bursts == 0 {
		t.Fatal("GE model produced no losses")
	}
	avgBurst := float64(losses) / float64(bursts)
	if avgBurst < 1.5 {
		t.Fatalf("average burst length %.2f, expected bursty (>1.5)", avgBurst)
	}
}

func TestLinkDownLosesInFlight(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{Delay: 10 * time.Millisecond})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("x"))
	link := a.Ifaces()[0].Link()
	s.After(5*time.Millisecond, func() { link.SetDown(true) })
	s.Run()
	if delivered != 0 {
		t.Fatal("packet survived link-down")
	}
	// Sends while down also vanish.
	link.SetDown(false)
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("y"))
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after link restored", delivered)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{})
	var got bool
	b.RegisterProto(ip.ProtoICMP, func(h ip.Header, payload, raw []byte, in *Iface) {
		if h.Dst == Broadcast {
			got = true
		}
	})
	a.SendIP(Broadcast, ip.ProtoICMP, ip.MarshalICMP(ip.ICMPMessage{Type: ip.ICMPRouterSolicitation}))
	s.Run()
	if !got {
		t.Fatal("broadcast not delivered to link peer")
	}
}

func TestNoRouteCounted(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s)
	a := n.AddNode("a")
	a.SendIP(ip.MustParseAddr("9.9.9.9"), ip.ProtoUDP, []byte("x"))
	s.Run()
	if a.Stats.IPOutNoRoutes != 1 {
		t.Fatalf("IPOutNoRoutes = %d", a.Stats.IPOutNoRoutes)
	}
}

func TestTTLExpiryDropsPacket(t *testing.T) {
	// Chain of forwarding nodes longer than the TTL... use a loop: two
	// routers with default routes pointing at each other.
	s := sim.NewScheduler(1)
	n := New(s)
	r1 := n.AddNode("r1")
	r2 := n.AddNode("r2")
	r1.Forwarding = true
	r2.Forwarding = true
	l := n.Connect(r1, ip.MustParseAddr("10.0.0.1"), r2, ip.MustParseAddr("10.0.0.2"), LinkConfig{})
	r1.AddDefaultRoute(l.a)
	r2.AddDefaultRoute(l.b)
	r1.SendIP(ip.MustParseAddr("99.0.0.1"), ip.ProtoUDP, []byte("loop"))
	s.Run() // must terminate: TTL hits zero
	if r1.Stats.IPForwDatagrams+r2.Stats.IPForwDatagrams == 0 {
		t.Fatal("packet never forwarded")
	}
	if r1.Stats.IPForwDatagrams > 64 {
		t.Fatal("TTL did not bound the loop")
	}
}

func TestAsymmetricLink(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.ConnectAsym(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"),
		LinkConfig{Bandwidth: 1e6, Delay: time.Millisecond},
		LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond})
	var fwd, rev sim.Time
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) {
		fwd = s.Now()
		b.SendIP(a.Addr(), ip.ProtoUDP, make([]byte, 980))
	})
	a.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { rev = s.Now() })
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 980))
	s.Run()
	fwdTime := time.Duration(fwd)
	revTime := time.Duration(rev) - fwdTime
	if fwdTime != 9*time.Millisecond {
		t.Fatalf("forward time = %v", fwdTime)
	}
	if revTime != 5*time.Millisecond+800*time.Microsecond {
		t.Fatalf("reverse time = %v", revTime)
	}
}

func TestARQRedeliversLostFrames(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{
		Loss: Bernoulli{P: 0.3}, QueueLen: 10000,
		ARQ: &ARQConfig{RetransDelay: 5 * time.Millisecond, MaxRetries: 8, PDup: 0},
	})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	const total = 500
	for i := 0; i < total; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("frame"))
	}
	s.Run()
	// 30% loss with 8 retries: effective loss 0.3^9 ≈ 0 — everything
	// should arrive.
	if delivered < total-1 {
		t.Fatalf("delivered %d of %d with ARQ", delivered, total)
	}
	st := a.Ifaces()[0].Link().StatsAB()
	if st.ARQRetries == 0 {
		t.Fatal("no ARQ retries recorded at 30% loss")
	}
}

func TestARQDuplicates(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{
		Loss: Bernoulli{P: 0.5}, QueueLen: 10000,
		ARQ: &ARQConfig{RetransDelay: 5 * time.Millisecond, MaxRetries: 8, PDup: 1.0},
	})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	const total = 300
	for i := 0; i < total; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("frame"))
	}
	s.Run()
	st := a.Ifaces()[0].Link().StatsAB()
	if st.ARQDuplicates == 0 {
		t.Fatal("PDup=1 produced no duplicates")
	}
	if delivered <= total {
		t.Fatalf("delivered %d, expected more than %d with duplicates", delivered, total)
	}
}

func TestARQGivesUpAfterMaxRetries(t *testing.T) {
	// Certain loss: every frame exhausts its retries and is dropped.
	s, _, a, b := twoHosts(t, LinkConfig{
		Loss: Bernoulli{P: 1.0}, QueueLen: 100,
		ARQ: &ARQConfig{RetransDelay: time.Millisecond, MaxRetries: 3},
	})
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	a.SendIP(b.Addr(), ip.ProtoUDP, []byte("doomed"))
	s.Run()
	if delivered != 0 {
		t.Fatal("frame survived certain loss")
	}
	if st := a.Ifaces()[0].Link().StatsAB(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d", st.Dropped)
	}
}

func TestJitterVariesDelay(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{
		Bandwidth: 100e6, Delay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond,
		QueueLen: 10000,
	})
	var arrivals []sim.Time
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) {
		arrivals = append(arrivals, s.Now())
	})
	for i := 0; i < 50; i++ {
		s.After(time.Duration(i)*100*time.Millisecond, func() {
			a.SendIP(b.Addr(), ip.ProtoUDP, []byte("j"))
		})
	}
	s.Run()
	if len(arrivals) != 50 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Delays must vary within [10ms, 30ms).
	minD, maxD := time.Hour, time.Duration(0)
	for i, at := range arrivals {
		d := time.Duration(at) - time.Duration(i)*100*time.Millisecond
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD < 10*time.Millisecond || maxD >= 31*time.Millisecond {
		t.Fatalf("delay range [%v, %v] outside jitter bounds", minD, maxD)
	}
	if maxD-minD < 5*time.Millisecond {
		t.Fatalf("jitter too uniform: [%v, %v]", minD, maxD)
	}
}

func TestARQChargesRoundsWhenExhausted(t *testing.T) {
	// Certain loss: every frame burns all MaxRetries rounds and is
	// dropped. Each round consumes link capacity, so the accounting
	// must charge them even though no round succeeds — the pre-fix
	// code only credited retries on a successful round, reporting an
	// ARQ link that retransmitted constantly as having retried never.
	const frames, retries = 20, 3
	s, _, a, b := twoHosts(t, LinkConfig{
		Loss: Bernoulli{P: 1.0}, QueueLen: 100,
		ARQ: &ARQConfig{RetransDelay: time.Millisecond, MaxRetries: retries},
	})
	for i := 0; i < frames; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("doomed"))
	}
	s.Run()
	st := a.Ifaces()[0].Link().StatsAB()
	if st.Dropped != frames {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, frames)
	}
	if st.ARQRetries != frames*retries {
		t.Fatalf("ARQRetries = %d, want %d (each exhausted frame spent %d rounds)",
			st.ARQRetries, frames*retries, retries)
	}
}

func TestTTLExpiryCountsHdrError(t *testing.T) {
	// RFC 1213: a transit datagram whose TTL runs out is an
	// ipInHdrErrors, not a silent drop.
	s, a, r, b := throughRouter(LinkConfig{})
	delivered := false
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered = true })
	h := ip.Header{TTL: 1, Protocol: ip.ProtoUDP, Src: a.Addr(), Dst: b.Addr()}
	raw, err := h.Marshal([]byte("last hop"))
	if err != nil {
		t.Fatal(err)
	}
	a.InjectPacket(raw)
	s.Run()
	if delivered {
		t.Fatal("a datagram with TTL 1 crossed a router")
	}
	if r.Stats.IPInHdrErrors != 1 || r.Stats.IPForwDatagrams != 0 {
		t.Fatalf("router IPInHdrErrors = %d, IPForwDatagrams = %d, want 1 and 0",
			r.Stats.IPInHdrErrors, r.Stats.IPForwDatagrams)
	}
}

// dropFirst loses the first frame it judges and no other.
type dropFirst struct{ seen bool }

func (d *dropFirst) Drop(*rand.Rand, int) bool {
	first := !d.seen
	d.seen = true
	return first
}

// TestDatagramOwnership pins the package's ownership rule: one buffer
// a datagram, forwarded in place, copied wherever it would go out
// twice, and recycled only once it is dead.
func TestDatagramOwnership(t *testing.T) {
	first := func(b []byte) *byte { return &b[:1][0] }

	t.Run("forwarded in place", func(t *testing.T) {
		s, a, _, b := throughRouter(LinkConfig{})
		var arrived *byte
		var h ip.Header
		b.RegisterProto(ip.ProtoUDP, func(hh ip.Header, _, raw []byte, _ *Iface) {
			if !ip.VerifyChecksum(raw) {
				t.Error("forwarded datagram has a bad header checksum")
			}
			arrived, h = first(raw), hh
		})
		sent := a.Datagram(ip.HeaderLen + 4)
		copy(sent[ip.HeaderLen:], "fwd!")
		a.SendDatagram(a.Addr(), b.Addr(), ip.ProtoUDP, sent)
		s.Run()
		if arrived != first(sent) {
			t.Fatal("the forwarded datagram arrived in a buffer other than the one sent")
		}
		if h.TTL != 63 {
			t.Fatalf("TTL = %d, want 63", h.TTL)
		}
	})

	t.Run("ARQ duplicate is a datagram of its own", func(t *testing.T) {
		s, a, _, b := throughRouter(LinkConfig{
			Loss: &dropFirst{},
			ARQ:  &ARQConfig{RetransDelay: time.Millisecond, MaxRetries: 2, PDup: 1},
		})
		var bufs []*byte
		b.RegisterProto(ip.ProtoUDP, func(h ip.Header, payload, raw []byte, _ *Iface) {
			if h.TTL != 63 || string(payload) != "twice" || !ip.VerifyChecksum(raw) {
				t.Errorf("copy %d: TTL %d, payload %q", len(bufs), h.TTL, payload)
			}
			bufs = append(bufs, first(raw))
		})
		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("twice"))
		s.Run()
		if len(bufs) != 2 || bufs[0] == bufs[1] {
			t.Fatalf("got %d copies, distinct buffers %v; want 2 distinct", len(bufs), len(bufs) == 2 && bufs[0] != bufs[1])
		}
	})

	t.Run("broadcast copies per neighbour", func(t *testing.T) {
		s := sim.NewScheduler(1)
		n := New(s)
		a, b, c := n.AddNode("a"), n.AddNode("b"), n.AddNode("c")
		n.Connect(a, ip.MustParseAddr("10.0.1.1"), b, ip.MustParseAddr("10.0.1.2"), LinkConfig{})
		n.Connect(a, ip.MustParseAddr("10.0.2.1"), c, ip.MustParseAddr("10.0.2.2"), LinkConfig{})
		got := map[string]*byte{}
		for _, nd := range []*Node{b, c} {
			nd := nd
			nd.RegisterProto(ip.ProtoUDP, func(_ ip.Header, payload, raw []byte, _ *Iface) {
				if string(payload) != "all" {
					t.Errorf("%s got %q", nd.Name(), payload)
				}
				got[nd.Name()] = first(raw)
			})
		}
		a.SendIP(Broadcast, ip.ProtoUDP, []byte("all"))
		s.Run()
		if len(got) != 2 || got["b"] == got["c"] {
			t.Fatalf("broadcast reached %d neighbours, in distinct buffers: %v", len(got), got["b"] != got["c"])
		}
	})

	t.Run("hook drop recycles, re-emit does not", func(t *testing.T) {
		s, _, a, b := twoHosts(t, LinkConfig{})
		var hooked *byte
		b.SetHook(func(raw []byte, _ *Iface) [][]byte {
			hooked = first(raw)
			if string(raw[ip.HeaderLen:]) == "drop" {
				return nil
			}
			return [][]byte{raw}
		})
		var handedOut *byte
		b.RegisterProto(ip.ProtoUDP, func(_ ip.Header, _, raw []byte, _ *Iface) {
			handedOut = first(b.Datagram(ip.HeaderLen))
		})

		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("drop"))
		s.Run()
		if next := first(a.Datagram(ip.HeaderLen)); next != hooked {
			t.Fatal("the buffer the hook dropped is not the next one handed out")
		}

		a.SendIP(b.Addr(), ip.ProtoUDP, []byte("keep"))
		s.Run()
		if handedOut == nil || handedOut == hooked {
			t.Fatal("the buffer the hook re-emitted was handed out before its delivery")
		}
		// Delivered, it dies exactly once: two draws get two buffers.
		if first(a.Datagram(1)) == first(a.Datagram(1)) {
			t.Fatal("a delivered datagram went back to the free list twice")
		}
	})
}

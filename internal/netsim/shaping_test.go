package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

func link(a *Node) *Link { return a.Ifaces()[0].Link() }

func TestShapePerDirection(t *testing.T) {
	// Shaping only a→b leaves the reverse direction's timing untouched.
	s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6, Delay: 10 * time.Millisecond})
	l := link(a)
	l.Shape(DirAB, Shaping{Fields: ShapeBandwidth | ShapeDelay, Bandwidth: 100e3, Delay: 50 * time.Millisecond})

	var fwd, rev sim.Time
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { fwd = s.Now() })
	a.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { rev = s.Now() })
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 1000-ip.HeaderLen))
	b.SendIP(a.Addr(), ip.ProtoUDP, make([]byte, 1000-ip.HeaderLen))
	s.Run()

	// a→b: 1000B at 100 kb/s = 80ms serialize + 50ms delay.
	if want := sim.Time(130 * time.Millisecond); fwd != want {
		t.Fatalf("shaped a→b arrival = %v, want %v", fwd, want)
	}
	// b→a keeps the original 1 Mb/s + 10ms: 8ms + 10ms.
	if want := sim.Time(18 * time.Millisecond); rev != want {
		t.Fatalf("unshaped b→a arrival = %v, want %v", rev, want)
	}
}

func TestShapeSetFieldSemantics(t *testing.T) {
	// Only fields named in Fields move; everything else — including
	// zero-valued struct members — stays put.
	_, _, a, _ := twoHosts(t, LinkConfig{Bandwidth: 1e6, Delay: 10 * time.Millisecond,
		Jitter: time.Millisecond, Loss: Bernoulli{P: 0.5}})
	l := link(a)
	l.Shape(DirBoth, Shaping{Fields: ShapeBandwidth, Bandwidth: 5e6})

	got := l.ConfigAB()
	if got.Bandwidth != 5e6 {
		t.Fatalf("Bandwidth = %d, want 5e6", got.Bandwidth)
	}
	if got.Delay != 10*time.Millisecond || got.Jitter != time.Millisecond {
		t.Fatalf("unset delay/jitter moved: %+v", got)
	}
	if _, ok := got.Loss.(Bernoulli); !ok {
		t.Fatalf("unset loss model moved: %T", got.Loss)
	}

	// An explicitly set nil loss model means lossless, not "keep".
	l.Shape(DirBoth, Shaping{Fields: ShapeLoss})
	if _, ok := l.ConfigAB().Loss.(NoLoss); !ok {
		t.Fatalf("explicit nil loss = %T, want NoLoss", l.ConfigAB().Loss)
	}
}

// TestShapeZeroBandwidthMeansNoCapacity is the regression test for the
// old SetBandwidth(0) sharp edge: an explicit zero used to be silently
// ignored (and a zero LinkConfig defaults to 100 Mb/s). Under Shape an
// explicit zero is a real state — no capacity — distinct from both the
// default and from link-down.
func TestShapeZeroBandwidthMeansNoCapacity(t *testing.T) {
	s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6})
	l := link(a)
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })

	l.Shape(DirAB, Shaping{Fields: ShapeBandwidth, Bandwidth: 0})
	if got := l.ConfigAB().Bandwidth; got != 0 {
		t.Fatalf("explicit zero was rewritten to %d (old silent-default behavior)", got)
	}
	// Not link-down: routing still selects the direction...
	if l.DownAB() || l.Down() {
		t.Fatal("zero capacity must not read as link-down")
	}
	for i := 0; i < 3; i++ {
		a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 100))
	}
	s.Run()
	// ...but nothing crosses, and the drops are accounted distinctly.
	if delivered != 0 {
		t.Fatalf("delivered %d packets over a zero-capacity direction", delivered)
	}
	st := l.StatsAB()
	if st.ZeroCapDrops != 3 || st.QueueDrops != 0 || st.Dropped != 0 {
		t.Fatalf("drops = %+v, want 3 zero-capacity drops only", st)
	}
	// The reverse direction is untouched.
	gotRev := 0
	a.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { gotRev++ })
	b.SendIP(a.Addr(), ip.ProtoUDP, make([]byte, 100))
	s.Run()
	if gotRev != 1 {
		t.Fatal("reverse direction should still carry traffic")
	}
	// Restoring capacity restores the flow.
	l.Shape(DirAB, Shaping{Fields: ShapeBandwidth, Bandwidth: 1e6})
	a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, 100))
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after restore, want 1", delivered)
	}
}

func TestShapingCaptureRestore(t *testing.T) {
	_, _, a, _ := twoHosts(t, LinkConfig{Bandwidth: 2e6, Delay: 5 * time.Millisecond})
	l := link(a)
	prev := l.ShapingAB()
	if prev.Fields != ShapeAll {
		t.Fatalf("captured shaping fields = %v, want ShapeAll", prev.Fields)
	}
	l.Shape(DirAB, Shaping{Fields: ShapeAll, Bandwidth: 100, Delay: time.Second, Jitter: time.Second, Loss: Bernoulli{P: 1}})
	l.Shape(DirAB, prev)
	got := l.ConfigAB()
	if got.Bandwidth != 2e6 || got.Delay != 5*time.Millisecond || got.Jitter != 0 {
		t.Fatalf("restore mismatch: %+v", got)
	}
	if _, ok := got.Loss.(NoLoss); !ok {
		t.Fatalf("restored loss = %T, want NoLoss", got.Loss)
	}
}

func transitionLog(ts []Transition) string {
	out := ""
	for _, tr := range ts {
		out += tr.String() + "\n"
	}
	return out
}

func TestTraceReplayBoundaries(t *testing.T) {
	s, _, a, _ := twoHosts(t, LinkConfig{Bandwidth: 1e6})
	l := link(a)
	p := TraceProfile{Name: "t", Segments: []TraceSegment{
		{Dur: 100 * time.Millisecond, Shape: Shaping{Fields: ShapeBandwidth, Bandwidth: 5e6}},
		{Dur: 50 * time.Millisecond, Shape: Shaping{Fields: ShapeBandwidth | ShapeDelay, Bandwidth: 250e3, Delay: 20 * time.Millisecond}},
		{Dur: 75 * time.Millisecond, Shape: Shaping{Fields: ShapeBandwidth, Bandwidth: 0}},
	}}
	if p.Duration() != 225*time.Millisecond {
		t.Fatalf("Duration = %v", p.Duration())
	}

	// Looping: boundaries land at exact cumulative virtual times.
	tp := p.Replay(s, l, DirAB, true)
	s.RunFor(500 * time.Millisecond)
	tp.Stop()
	wantAt := []time.Duration{0, 100, 150, 225, 325, 375, 450}
	log := tp.Transitions()
	if len(log) != len(wantAt) {
		t.Fatalf("transitions = %d, want %d:\n%s", len(log), len(wantAt), transitionLog(log))
	}
	for i, tr := range log {
		if tr.At != sim.Time(wantAt[i]*time.Millisecond) {
			t.Fatalf("transition %d at %v, want %v", i, time.Duration(tr.At), wantAt[i]*time.Millisecond)
		}
		if tr.Seg != i%3 {
			t.Fatalf("transition %d seg = %d", i, tr.Seg)
		}
	}

	// Replay is trivially deterministic: same profile, same log.
	s2 := sim.NewScheduler(9)
	n2 := New(s2)
	a2 := n2.AddNode("a")
	b2 := n2.AddNode("b")
	l2 := n2.Connect(a2, ip.MustParseAddr("10.0.0.1"), b2, ip.MustParseAddr("10.0.0.2"), LinkConfig{})
	tp2 := p.Replay(s2, l2, DirAB, true)
	s2.RunFor(500 * time.Millisecond)
	tp2.Stop()
	if transitionLog(tp2.Transitions()) != transitionLog(log) {
		t.Fatal("trace replay not deterministic across networks")
	}

	// Non-looping: stops after the last segment, shaping left in place.
	s3 := sim.NewScheduler(3)
	n3 := New(s3)
	a3 := n3.AddNode("a")
	b3 := n3.AddNode("b")
	l3 := n3.Connect(a3, ip.MustParseAddr("10.0.0.1"), b3, ip.MustParseAddr("10.0.0.2"), LinkConfig{})
	tp3 := p.Replay(s3, l3, DirAB, false)
	s3.RunFor(time.Second)
	if !tp3.Done() {
		t.Fatal("non-looping replay never finished")
	}
	if got := len(tp3.Transitions()); got != 3 {
		t.Fatalf("non-looping transitions = %d, want 3", got)
	}
	if l3.ConfigAB().Bandwidth != 0 {
		t.Fatalf("final segment shaping not left in place: bw=%d", l3.ConfigAB().Bandwidth)
	}
}

// TestNLoSJitterReorders: a large-jitter NLoS segment reorders packets
// (arrival order differs from send order), deterministically per seed —
// the delay-variation artifact the mwin filter must ride out.
func TestNLoSJitterReorders(t *testing.T) {
	run := func(seed int64) []int {
		s := sim.NewScheduler(seed)
		n := New(s)
		a := n.AddNode("a")
		b := n.AddNode("b")
		l := n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"),
			LinkConfig{Bandwidth: 50e6, Delay: time.Millisecond})
		// NLoS shaping: slow, long-delay, heavily jittered.
		l.Shape(DirAB, Shaping{Fields: ShapeBandwidth | ShapeDelay | ShapeJitter,
			Bandwidth: 2e6, Delay: 10 * time.Millisecond, Jitter: 40 * time.Millisecond})
		var order []int
		b.RegisterProto(ip.ProtoUDP, func(_ ip.Header, payload, _ []byte, _ *Iface) {
			order = append(order, int(payload[0]))
		})
		for i := 0; i < 20; i++ {
			a.SendIP(b.Addr(), ip.ProtoUDP, []byte{byte(i), 0, 0, 0})
		}
		s.Run()
		return order
	}
	got := run(5)
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatalf("40ms jitter never reordered 20 back-to-back packets: %v", got)
	}
	if fmt.Sprint(run(5)) != fmt.Sprint(got) {
		t.Fatal("jittered arrival order not deterministic per seed")
	}
}

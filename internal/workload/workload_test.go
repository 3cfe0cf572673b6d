package workload_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
	"repro/internal/workload"
)

type wrig struct {
	sched  *sim.Scheduler
	a, b   *netsim.Node
	sa, sb *tcp.Stack
	ua, ub *udp.Stack
}

func newWrig(t *testing.T, cfg netsim.LinkConfig) *wrig {
	t.Helper()
	s := sim.NewScheduler(2)
	n := netsim.New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), cfg)
	r := &wrig{sched: s, a: a, b: b,
		sa: tcp.NewStack(a, tcp.Config{}), sb: tcp.NewStack(b, tcp.Config{}),
		ua: udp.NewStack(a), ub: udp.NewStack(b)}
	a.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { r.sa.Deliver(h.Src, h.Dst, p) })
	b.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { r.sb.Deliver(h.Src, h.Dst, p) })
	a.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { r.ua.Deliver(h.Src, h.Dst, p) })
	b.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { r.ub.Deliver(h.Src, h.Dst, p) })
	return r
}

func TestBulkAndSink(t *testing.T) {
	r := newWrig(t, netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond})
	count := 0
	if err := workload.ServeSink(r.sb, 80, &count); err != nil {
		t.Fatal(err)
	}
	bulk, err := workload.StartBulk(r.sa, r.b.Addr(), 80, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(30 * time.Second)
	if count != 200_000 {
		t.Fatalf("sink got %d of %d", count, bulk.Total)
	}
}

func TestInteractiveLatency(t *testing.T) {
	r := newWrig(t, netsim.LinkConfig{Bandwidth: 10e6, Delay: 25 * time.Millisecond})
	if err := workload.ServeEcho(r.sb, 23); err != nil {
		t.Fatal(err)
	}
	iw, err := workload.StartInteractive(r.sched, r.sa, r.b.Addr(), 23, 200*time.Millisecond, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(5 * time.Second)
	iw.Stop()
	if len(iw.Latencies) < 15 {
		t.Fatalf("only %d exchanges completed", len(iw.Latencies))
	}
	mean := iw.Mean()
	// RTT is ~50ms (25ms propagation each way plus serialization).
	if mean < 45*time.Millisecond || mean > 80*time.Millisecond {
		t.Fatalf("mean latency %v, want ≈50ms", mean)
	}
	if iw.Max() < mean {
		t.Fatal("max < mean")
	}
}

// TestEchoReturnsBytes checks the echo server sends back exactly what
// it received, retransmissions included: those are sent after OnData
// returned, when (under -race) the datagram buffer it was handed has
// been recycled and poisoned.
func TestEchoReturnsBytes(t *testing.T) {
	r := newWrig(t, netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond, Loss: netsim.Bernoulli{P: 0.2}})
	if err := workload.ServeEcho(r.sb, 7); err != nil {
		t.Fatal(err)
	}
	c, err := r.sa.Connect(r.b.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var sent, echoed []byte
	c.OnData = func(b []byte) { echoed = append(echoed, b...) }
	for i := 0; i < 40; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i%26)}, 100)
		sent = append(sent, msg...)
		r.sched.After(time.Duration(i)*200*time.Millisecond+time.Second, func() { c.Write(msg) })
	}
	r.sched.RunFor(120 * time.Second)
	if !bytes.Equal(echoed, sent) {
		t.Fatalf("echoed %d bytes, want the %d sent back unchanged", len(echoed), len(sent))
	}
}

func TestCBRMedia(t *testing.T) {
	r := newWrig(t, netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond})
	frames := map[uint8]int{}
	r.ub.Bind(4001, func(_ ip.Addr, _ uint16, payload []byte) {
		f, err := media.UnmarshalFrame(payload)
		if err != nil {
			t.Errorf("bad frame: %v", err)
			return
		}
		frames[f.Layer]++
	})
	w := workload.StartCBRMedia(r.sched, r.ua, r.b.Addr(), 4000, 4001, 3, 100, 20, 40*time.Millisecond, 5)
	r.sched.RunFor(5 * time.Second)
	if w.Sent != 60 {
		t.Fatalf("sent %d frames", w.Sent)
	}
	for l := uint8(0); l < 3; l++ {
		if frames[l] != 20 {
			t.Fatalf("layer %d: %d frames", l, frames[l])
		}
	}
}

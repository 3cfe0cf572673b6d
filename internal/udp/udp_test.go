package udp_test

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/udp"
)

func TestDatagramRoundTrip(t *testing.T) {
	d := udp.Datagram{SrcPort: 4000, DstPort: 4001, Payload: []byte("media frame")}
	src, dst := ip.MustParseAddr("1.1.1.1"), ip.MustParseAddr("2.2.2.2")
	raw := d.Marshal(src, dst)
	if !udp.VerifyChecksum(src, dst, raw) {
		t.Fatal("checksum invalid after marshal")
	}
	g, err := udp.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if g.SrcPort != 4000 || g.DstPort != 4001 || !bytes.Equal(g.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: %+v", g)
	}
	raw[len(raw)-1] ^= 1
	if udp.VerifyChecksum(src, dst, raw) {
		t.Fatal("corruption not detected")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := udp.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short datagram accepted")
	}
	// Length field larger than the buffer.
	d := udp.Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("xxxx")}
	raw := d.Marshal(1, 2)
	if _, err := udp.Unmarshal(raw[:9]); err == nil {
		t.Fatal("truncated datagram accepted")
	}
}

func TestZeroChecksumMeansUnused(t *testing.T) {
	d := udp.Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("y")}
	raw := d.Marshal(3, 4)
	raw[6], raw[7] = 0, 0 // checksum "not used"
	if !udp.VerifyChecksum(3, 4, raw) {
		t.Fatal("zero checksum must be accepted per RFC 768")
	}
}

func TestStackBindSendDeliver(t *testing.T) {
	s := sim.NewScheduler(1)
	n := netsim.New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	sa, sb := udp.NewStack(a), udp.NewStack(b)
	a.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sa.Deliver(h.Src, h.Dst, p) })
	b.RegisterProto(ip.ProtoUDP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sb.Deliver(h.Src, h.Dst, p) })

	var got []byte
	var gotSrc ip.Addr
	var gotPort uint16
	if err := sb.Bind(4001, func(src ip.Addr, sp uint16, payload []byte) {
		got, gotSrc, gotPort = bytes.Clone(payload), src, sp // payload dies with the handler
	}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Bind(4001, func(ip.Addr, uint16, []byte) {}); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	sa.Send(4000, b.Addr(), 4001, []byte("ping"))
	s.RunFor(time.Second)
	if string(got) != "ping" || gotSrc != a.Addr() || gotPort != 4000 {
		t.Fatalf("delivery: %q from %v:%d", got, gotSrc, gotPort)
	}

	// Unbound port: silently dropped.
	got = nil
	sa.Send(4000, b.Addr(), 9999, []byte("lost"))
	s.RunFor(time.Second)
	if got != nil {
		t.Fatal("unbound port delivered")
	}
}

func TestDatagramRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, src, dst uint32, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		d := udp.Datagram{SrcPort: sp, DstPort: dp, Payload: payload}
		raw := d.Marshal(ip.Addr(src), ip.Addr(dst))
		if !udp.VerifyChecksum(ip.Addr(src), ip.Addr(dst), raw) {
			return false
		}
		g, err := udp.Unmarshal(raw)
		return err == nil && g.SrcPort == sp && g.DstPort == dp && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

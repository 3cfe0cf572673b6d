package filter

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/udp"
)

func mustKey(t *testing.T, fields ...string) Key {
	t.Helper()
	k, err := ParseKey(fields)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyMatching(t *testing.T) {
	exact := mustKey(t, "11.11.10.99", "7", "11.11.10.10", "1169")
	cases := []struct {
		wild  Key
		match bool
	}{
		{mustKey(t, "11.11.10.99", "7", "11.11.10.10", "1169"), true},
		{mustKey(t, "0.0.0.0", "0", "11.11.10.10", "0"), true},
		{mustKey(t, "0.0.0.0", "0", "0.0.0.0", "0"), true},
		{mustKey(t, "11.11.10.99", "0", "0.0.0.0", "0"), true},
		{mustKey(t, "0.0.0.0", "0", "0.0.0.0", "1169"), true},
		{mustKey(t, "0.0.0.0", "0", "11.11.10.11", "0"), false},
		{mustKey(t, "0.0.0.0", "8", "0.0.0.0", "0"), false},
		{mustKey(t, "11.11.10.10", "0", "0.0.0.0", "0"), false},
	}
	for _, c := range cases {
		if got := c.wild.Matches(exact); got != c.match {
			t.Errorf("%v matches %v = %v, want %v", c.wild, exact, got, c.match)
		}
	}
}

func TestKeyReverse(t *testing.T) {
	k := mustKey(t, "1.2.3.4", "80", "5.6.7.8", "99")
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.SrcPort != k.DstPort || r.DstIP != k.SrcIP || r.DstPort != k.SrcPort {
		t.Fatalf("reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestKeyString(t *testing.T) {
	k := mustKey(t, "11.11.10.99", "7", "11.11.10.10", "1169")
	want := "11.11.10.99 7 -> 11.11.10.10 1169"
	if k.String() != want {
		t.Fatalf("String = %q, want %q", k.String(), want)
	}
}

func TestParseKeyErrors(t *testing.T) {
	bad := [][]string{
		{"1.2.3.4", "80", "5.6.7.8"},            // short
		{"1.2.3.4", "80", "5.6.7.8", "99", "x"}, // long
		{"nonsense", "80", "5.6.7.8", "99"},
		{"1.2.3.4", "-1", "5.6.7.8", "99"},
		{"1.2.3.4", "80", "5.6.7.8", "70000"},
	}
	for _, f := range bad {
		if _, err := ParseKey(f); err == nil {
			t.Errorf("ParseKey(%v) succeeded", f)
		}
	}
}

func TestIsWild(t *testing.T) {
	if !mustKey(t, "0.0.0.0", "7", "1.1.1.1", "1").IsWild() {
		t.Error("zero src IP should be wild")
	}
	if mustKey(t, "2.2.2.2", "7", "1.1.1.1", "1").IsWild() {
		t.Error("fully specified key reported wild")
	}
}

func buildTCPPacket(t *testing.T, payload []byte) []byte {
	t.Helper()
	seg := tcp.Segment{SrcPort: 7, DstPort: 1169, Seq: 100, Ack: 50,
		Flags: tcp.FlagACK, Window: 8760, Payload: payload}
	src, dst := ip.MustParseAddr("11.11.10.99"), ip.MustParseAddr("11.11.10.10")
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestParsePacketTCP(t *testing.T) {
	raw := buildTCPPacket(t, []byte("data"))
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil {
		t.Fatal("TCP not decoded")
	}
	want := Key{SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: 7,
		DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 1169}
	if p.Key != want {
		t.Fatalf("key = %v", p.Key)
	}
	if string(p.TCP.Payload) != "data" {
		t.Fatalf("payload = %q", p.TCP.Payload)
	}
}

func TestParsePacketNonTCP(t *testing.T) {
	h := ip.Header{TTL: 64, Protocol: ip.ProtoUDP,
		Src: ip.MustParseAddr("1.1.1.1"), Dst: ip.MustParseAddr("2.2.2.2")}
	raw, _ := h.Marshal([]byte("udp payload"))
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP != nil {
		t.Fatal("decoded TCP from a UDP packet")
	}
	if string(p.Data) != "udp payload" {
		t.Fatalf("data = %q", p.Data)
	}
	if p.Key.SrcPort != 0 || p.Key.DstPort != 0 {
		t.Fatalf("key ports should be zero: %v", p.Key)
	}
}

func TestRemarshalFixesChecksums(t *testing.T) {
	raw := buildTCPPacket(t, []byte("hello"))
	p, _ := Parse(raw)
	p.TCP.Window = 1234
	p.TCP.Payload = []byte("HELLO THERE") // grow payload
	p.MarkDirty()
	if err := p.Remarshal(); err != nil {
		t.Fatal(err)
	}
	if p.Dirty() {
		t.Fatal("dirty after remarshal")
	}
	if !ip.VerifyChecksum(p.Raw) {
		t.Fatal("IP checksum invalid after remarshal")
	}
	h, seg, err := ip.Unmarshal(p.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !tcp.VerifyChecksum(h.Src, h.Dst, seg) {
		t.Fatal("TCP checksum invalid after remarshal")
	}
	got, _ := tcp.Unmarshal(seg)
	if got.Window != 1234 || !bytes.Equal(got.Payload, []byte("HELLO THERE")) {
		t.Fatalf("rewritten fields lost: %+v", got)
	}
}

// marshalCase is one packet shape the view re-marshals: the IP
// options and the transport bytes, which also set the protocol.
type marshalCase struct {
	name      string
	ipOptions []byte
	transport func(*ip.Header) []byte
}

// marshalCases covers every shape the packet view has.
func marshalCases() []marshalCase {
	src, dst := ip.MustParseAddr("11.11.10.99"), ip.MustParseAddr("11.11.10.10")
	odd := bytes.Repeat([]byte{0xa5, 0x01, 0xff}, 487) // 1461 bytes: odd length, last word padded
	tcpSeg := func(mss uint16, payload []byte) func(*ip.Header) []byte {
		return func(h *ip.Header) []byte {
			h.Protocol = ip.ProtoTCP
			seg := tcp.Segment{SrcPort: 7, DstPort: 1169, Seq: 0xfffffff0, Ack: 50,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 8760, Urgent: 3, MSS: mss, Payload: payload}
			return seg.Marshal(src, dst)
		}
	}
	return []marshalCase{
		{"tcp", nil, tcpSeg(0, odd)},
		{"tcp-pure-ack", nil, tcpSeg(0, nil)},
		{"tcp-mss-option", nil, tcpSeg(1460, []byte("syn data"))},
		{"tcp-ip-options", []byte{1, 1, 1, 0, 1, 1, 1, 0}, tcpSeg(0, odd)},
		{"tcp-mss-and-ip-options", []byte{1, 1, 1, 0}, tcpSeg(536, odd)},
		{"udp", nil, func(h *ip.Header) []byte {
			h.Protocol = ip.ProtoUDP
			d := udp.Datagram{SrcPort: 5004, DstPort: 5006, Payload: odd}
			return d.Marshal(src, dst)
		}},
		{"udp-ip-options", []byte{1, 1, 1, 0}, func(h *ip.Header) []byte {
			h.Protocol = ip.ProtoUDP
			d := udp.Datagram{SrcPort: 5004, DstPort: 5006}
			return d.Marshal(src, dst)
		}},
		{"undecoded", []byte{1, 1, 1, 0}, func(h *ip.Header) []byte {
			h.Protocol = ip.ProtoICMP
			return odd
		}},
		{"tcp-truncated-header", nil, func(h *ip.Header) []byte {
			h.Protocol = ip.ProtoTCP
			return []byte{0, 7, 4, 145, 0} // does not decode: carried as Data
		}},
	}
}

// marshalled builds c's datagram with the plain two-step composition.
func marshalled(t *testing.T, c marshalCase) []byte {
	t.Helper()
	src, dst := ip.MustParseAddr("11.11.10.99"), ip.MustParseAddr("11.11.10.10")
	h := ip.Header{TOS: 0x10, ID: 0x1234, Flags: ip.FlagDF, TTL: 64, Src: src, Dst: dst, Options: c.ipOptions}
	want, err := h.Marshal(c.transport(&h))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRemarshalMatchesTwoStepMarshal: the single-buffer re-marshal
// (transport written directly behind the IP header) must produce the
// bytes of the plain composition Header.Marshal(Segment.Marshal()),
// for every shape the packet view has; Encode must produce them too
// and leave the packet as it found it.
func TestRemarshalMatchesTwoStepMarshal(t *testing.T) {
	for _, c := range marshalCases() {
		t.Run(c.name, func(t *testing.T) {
			want := marshalled(t, c)
			p, err := Parse(want)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			// Nothing was edited, so re-marshalling must reproduce the
			// datagram, in a buffer of its own.
			enc, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("Encode differs from the two-step marshal:\n% x\n% x", enc, want)
			}
			if &p.Raw[0] != &want[0] || p.Dirty() {
				t.Fatal("Encode touched Raw or the dirty mark")
			}
			p.MarkDirty()
			if err := p.Remarshal(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.Raw, want) {
				t.Fatalf("Remarshal differs from the two-step marshal:\n% x\n% x", p.Raw, want)
			}
			if &p.Raw[0] == &want[0] || &p.Raw[0] == &enc[0] {
				t.Fatal("Remarshal reused a buffer that already escaped")
			}
		})
	}
}

// TestRemarshalIntoRecycledBuffers: a view with a datagram source
// re-marshals into the source's buffers, whose stale bytes (0xDB, as
// netsim poisons released ones) must all be overwritten — for every
// shape, under Remarshal and RemarshalStale — while Encode never takes
// a buffer from it: a snapshot is kept, and a recycled buffer would be
// rewritten under its keeper.
func TestRemarshalIntoRecycledBuffers(t *testing.T) {
	var handed [][]byte
	source := func(n int) []byte {
		b := bytes.Repeat([]byte{0xdb}, max(n, 1536))[:n]
		handed = append(handed, b)
		return b
	}
	for _, c := range marshalCases() {
		t.Run(c.name, func(t *testing.T) {
			want := marshalled(t, c)
			var p Packet
			p.SetDatagrams(source)
			if err := p.Decode(want); err != nil {
				t.Fatal(err)
			}
			handed = handed[:0]
			enc, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if len(handed) != 0 || !bytes.Equal(enc, want) {
				t.Fatalf("Encode took %d buffers from the view's source", len(handed))
			}
			for _, stale := range []bool{false, true} {
				p.MarkDirty()
				remarshal := p.Remarshal
				if stale {
					remarshal = p.RemarshalStale
				}
				if err := remarshal(); err != nil {
					t.Fatal(err)
				}
				if n := len(handed); n != 1 || &p.Raw[0] != &handed[0][0] {
					t.Fatalf("stale=%v: Raw is not the one buffer the source handed out (%d handed)", stale, n)
				}
				if !bytes.Equal(p.Raw, want) {
					t.Fatalf("stale=%v: re-marshal into a recycled buffer differs:\n% x\n% x", stale, p.Raw, want)
				}
				handed = handed[:0]
				if again, _ := p.Encode(); len(handed) != 0 || &again[0] == &p.Raw[0] {
					t.Fatal("Encode of a re-marshalled view shares a source buffer")
				}
			}
		})
	}
}

func TestRemarshalStaleKeepsBadChecksum(t *testing.T) {
	raw := buildTCPPacket(t, []byte("hello"))
	p, _ := Parse(raw)
	p.TCP.Window = 4321
	p.MarkDirty()
	if err := p.RemarshalStale(); err != nil {
		t.Fatal(err)
	}
	h, seg, err := ip.Unmarshal(p.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if tcp.VerifyChecksum(h.Src, h.Dst, seg) {
		t.Fatal("stale remarshal produced a valid TCP checksum")
	}
	got, _ := tcp.Unmarshal(seg)
	if got.Window != 4321 {
		t.Fatalf("window edit lost: %d", got.Window)
	}
}

func TestPacketDropAndInject(t *testing.T) {
	raw := buildTCPPacket(t, nil)
	p, _ := Parse(raw)
	if p.Dropped() {
		t.Fatal("fresh packet dropped")
	}
	p.Drop()
	if !p.Dropped() {
		t.Fatal("Drop did not mark")
	}
	p.Inject([]byte{1, 2, 3})
	p.Inject([]byte{4})
	if n := len(p.Injections()); n != 2 {
		t.Fatalf("injections = %d", n)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.Register("x", func() Factory { return nil })
	if _, err := c.Load("nope"); err == nil {
		t.Fatal("loaded unregistered factory")
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
}

// Property: key match is reflexive on exact keys, and the full
// wild-card matches everything.
func TestKeyMatchProperty(t *testing.T) {
	f := func(s, d uint32, sp, dp uint16) bool {
		k := Key{SrcIP: ip.Addr(s | 1), SrcPort: sp | 1, DstIP: ip.Addr(d | 1), DstPort: dp | 1}
		return k.Matches(k) && (Key{}).Matches(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

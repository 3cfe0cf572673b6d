package filter

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// FuzzFilterParse drives the proxy's packet view with arbitrary
// datagrams: Parse must never panic, Encode must be repeatable,
// Remarshal must produce a packet that re-parses to the same stream
// key, and neither a pooled view nor a reused one (the proxy's hot
// path) may leak decoded state from one packet into the next.
func FuzzFilterParse(f *testing.F) {
	src := ip.MustParseAddr("11.11.10.99")
	dst := ip.MustParseAddr("11.11.10.10")
	hdr := func(proto byte) ip.Header {
		return ip.Header{TTL: 64, Protocol: proto, Src: src, Dst: dst}
	}
	seg := tcp.Segment{SrcPort: 7, DstPort: 5001, Seq: 1000, Ack: 1,
		Flags: tcp.FlagACK, Window: 8760, Payload: []byte("tcp payload")}
	h := hdr(ip.ProtoTCP)
	rawTCP, _ := h.Marshal(seg.Marshal(src, dst))
	f.Add(rawTCP)
	dgm := udp.Datagram{SrcPort: 4000, DstPort: 4001, Payload: []byte("udp payload")}
	h = hdr(ip.ProtoUDP)
	rawUDP, _ := h.Marshal(dgm.Marshal(src, dst))
	f.Add(rawUDP)
	h = hdr(ip.ProtoICMP) // undecoded transport: Data path
	rawICMP, _ := h.Marshal([]byte{8, 0, 0, 0})
	f.Add(rawICMP)
	f.Add([]byte{0x45, 0x00})
	// IP options and an MSS option: what an in-place decode of the
	// next packet must clear.
	syn := tcp.Segment{SrcPort: 7, DstPort: 5001, Seq: 999, Flags: tcp.FlagSYN,
		Window: 8760, MSS: 1460}
	h = hdr(ip.ProtoTCP)
	h.Options = []byte{1, 1, 1, 0}
	rawOpts, _ := h.Marshal(syn.Marshal(src, dst))
	f.Add(rawOpts)

	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := Parse(b)
		if err != nil {
			return
		}
		key1 := pkt.Key
		var seg1 tcp.Segment
		hadTCP := pkt.TCP != nil
		if hadTCP {
			seg1 = *pkt.TCP
		}

		// Encode must be repeatable: it promises not to modify the
		// packet, so two calls must agree byte for byte.
		enc1, err1 := pkt.Encode()
		enc2, err2 := pkt.Encode()
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(enc1, enc2) {
			t.Fatalf("Encode not repeatable: (%v, %v)", err1, err2)
		}

		// Remarshal rebuilds Raw; the result must re-parse to the same
		// stream key. (The encoding is normalized — unknown TCP options
		// are dropped — so only semantic equality is required here.)
		if err := pkt.Remarshal(); err != nil {
			t.Fatalf("Remarshal of parsed packet failed: %v", err)
		}
		re, err := Parse(pkt.Raw)
		if err != nil {
			t.Fatalf("re-parse of remarshalled packet failed: %v", err)
		}
		if re.Key != key1 {
			t.Fatalf("stream key changed across remarshal: %v -> %v", key1, re.Key)
		}
		re.Release()
		pkt.Release()

		// Pool-leak check: parsing the same bytes with a recycled
		// Packet must reproduce the original decode exactly.
		pkt2, err := Parse(b)
		if err != nil {
			t.Fatalf("re-parse of original bytes failed after Release: %v", err)
		}
		defer pkt2.Release()
		if pkt2.Key != key1 {
			t.Fatalf("recycled parse changed key: %v -> %v", key1, pkt2.Key)
		}
		if (pkt2.TCP != nil) != hadTCP {
			t.Fatalf("recycled parse changed transport decode")
		}
		if hadTCP {
			s2 := *pkt2.TCP
			if seg1.SrcPort != s2.SrcPort || seg1.DstPort != s2.DstPort ||
				seg1.Seq != s2.Seq || seg1.Ack != s2.Ack || seg1.Flags != s2.Flags ||
				seg1.Window != s2.Window || seg1.Checksum != s2.Checksum ||
				seg1.MSS != s2.MSS || !bytes.Equal(seg1.Payload, s2.Payload) {
				t.Fatalf("recycled parse leaked state:\n%+v\n%+v", seg1, s2)
			}
		}

		// Reuse check: a view that last held a packet of the other
		// transport, or the SYN with IP and MSS options, dropped,
		// dirtied and with an injection queued, must decode b exactly as
		// a fresh Parse does, with no verdict left.
		other := rawTCP
		if pkt2.TCP != nil {
			other = rawUDP
		}
		for _, prior := range [][]byte{other, rawOpts} {
			var view Packet
			if err := view.Decode(prior); err != nil {
				t.Fatal(err)
			}
			view.Drop()
			view.MarkDirty()
			view.Inject([]byte{0x45})
			if err := view.Decode(b); err != nil {
				t.Fatalf("Decode into a used view failed where Parse succeeded: %v", err)
			}
			if !sameDecode(&view, pkt2) {
				t.Fatalf("reused view leaked state:\n%+v\n%+v", view, *pkt2)
			}
			if view.Dropped() || view.Dirty() || len(view.Injections()) != 0 {
				t.Fatalf("reused view kept a verdict: dropped=%v dirty=%v injections=%d",
					view.Dropped(), view.Dirty(), len(view.Injections()))
			}
		}
	})
}

// sameDecode reports whether a and b hold the same decoded packet,
// field by field, following the transport pointers.
func sameDecode(a, b *Packet) bool {
	return bytes.Equal(a.Raw, b.Raw) && reflect.DeepEqual(a.IP, b.IP) &&
		reflect.DeepEqual(a.TCP, b.TCP) && reflect.DeepEqual(a.UDP, b.UDP) &&
		bytes.Equal(a.Data, b.Data) && a.Key == b.Key
}

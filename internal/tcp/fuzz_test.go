package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ip"
)

// FuzzTCPParse drives the segment codec with arbitrary bytes: decoding
// must never panic, decoding into a used segment must give what
// decoding into a zero one gives, error or not, any segment that
// decodes must keep its fields across a decode→encode→decode round
// trip, and the normalized encoding (unknown options dropped, MSS
// kept) must be byte-stable.
func FuzzTCPParse(f *testing.F) {
	src := ip.MustParseAddr("11.11.10.99")
	dst := ip.MustParseAddr("11.11.10.10")
	data := Segment{SrcPort: 7, DstPort: 5001, Seq: 1000, Ack: 1,
		Flags: FlagACK | FlagPSH, Window: 8760, Payload: []byte("payload bytes")}
	f.Add(uint32(src), uint32(dst), data.Marshal(src, dst))
	syn := Segment{SrcPort: 7, DstPort: 5001, Seq: 99, Flags: FlagSYN,
		Window: 65535, MSS: 1460}
	f.Add(uint32(src), uint32(dst), syn.Marshal(src, dst))
	f.Add(uint32(0), uint32(0), []byte{})
	f.Add(uint32(1), uint32(2), bytes.Repeat([]byte{0x01}, 40)) // NOP options

	// used is a segment that last held the SYN with its MSS option.
	var used Segment
	if err := used.Decode(syn.Marshal(src, dst)); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, srcU, dstU uint32, b []byte) {
		src, dst := ip.Addr(srcU), ip.Addr(dstU)
		// Decode stores in place: nothing of the segment it last held
		// (MSS above all) may survive, not even on an error.
		var fresh Segment
		err0 := fresh.Decode(b)
		reused := used
		if errR := reused.Decode(b); errR != err0 || !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("Decode into a used segment diverges (%v, %v):\n%+v\n%+v", errR, err0, reused, fresh)
		}

		s1, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc1 := s1.Marshal(src, dst)
		s2, err := Unmarshal(enc1)
		if err != nil {
			t.Fatalf("decode of re-marshalled segment failed: %v", err)
		}
		// Marshal wrote the recomputed checksum back into s1, so every
		// field must survive the round trip.
		if s1.SrcPort != s2.SrcPort || s1.DstPort != s2.DstPort ||
			s1.Seq != s2.Seq || s1.Ack != s2.Ack || s1.Flags != s2.Flags ||
			s1.Window != s2.Window || s1.Checksum != s2.Checksum ||
			s1.Urgent != s2.Urgent || s1.MSS != s2.MSS {
			t.Fatalf("segment changed across round trip:\n%+v\n%+v", s1, s2)
		}
		if !bytes.Equal(s1.Payload, s2.Payload) {
			t.Fatalf("payload changed across round trip")
		}
		if !VerifyChecksum(src, dst, enc1) {
			t.Fatalf("re-marshalled segment has bad checksum")
		}
		// Second round trip: the normalized form must be a fixed point.
		enc2 := s2.Marshal(src, dst)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not stable:\n% x\n% x", enc1, enc2)
		}
		// AppendMarshal into a dirty reused buffer must agree with the
		// fresh allocation (the hot path's scratch-buffer discipline).
		scratch := bytes.Repeat([]byte{0xa5}, 64)
		app := s2.AppendMarshal(scratch[:0], src, dst)
		if !bytes.Equal(app, enc2) {
			t.Fatalf("AppendMarshal into dirty scratch diverges from Marshal")
		}
	})
}

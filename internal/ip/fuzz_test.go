package ip

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzIPParse drives the IPv4 codec with arbitrary bytes: decoding
// must never panic, decoding into a used header must give what
// decoding into a zero one gives, error or not, and any datagram that
// decodes must survive a decode→encode→decode round trip with
// identical fields and reach a byte-stable encoding.
func FuzzIPParse(f *testing.F) {
	// Real packets as seeds: plain, with options, odd payload length,
	// and trailing junk past TotalLen.
	h := Header{TTL: 64, Protocol: ProtoTCP,
		Src: MustParseAddr("11.11.10.99"), Dst: MustParseAddr("11.11.10.10")}
	plain, _ := h.Marshal([]byte("hello wireless world"))
	f.Add(plain)
	ho := h
	ho.Options = []byte{1, 1, 1, 0} // NOP NOP NOP EOL
	withOpts, _ := ho.Marshal([]byte{0xde, 0xad, 0xbe})
	f.Add(withOpts)
	f.Add(append(append([]byte{}, plain...), 0xff, 0xfe, 0xfd))
	f.Add([]byte{0x45})
	f.Add([]byte{})

	// used is a header that last held the datagram with options.
	var used Header
	if _, err := used.Decode(withOpts); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode stores in place: nothing of the header it last held
		// (Options above all) may survive, not even on an error.
		var fresh Header
		payload0, err0 := fresh.Decode(b)
		reused := used
		payloadR, errR := reused.Decode(b)
		if errR != err0 || !reflect.DeepEqual(reused, fresh) || !bytes.Equal(payloadR, payload0) {
			t.Fatalf("Decode into a used header diverges (%v, %v):\n%+v\n%+v", errR, err0, reused, fresh)
		}

		h1, payload1, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc1, err := h1.Marshal(payload1)
		if err != nil {
			t.Fatalf("re-marshal of decoded datagram failed: %v", err)
		}
		h2, payload2, err := Unmarshal(enc1)
		if err != nil {
			t.Fatalf("decode of re-marshalled datagram failed: %v", err)
		}
		// Marshal wrote the recomputed TotalLen/Checksum back into h1,
		// so the round-tripped header must match field for field.
		if h1.TOS != h2.TOS || h1.TotalLen != h2.TotalLen || h1.ID != h2.ID ||
			h1.Flags != h2.Flags || h1.FragOff != h2.FragOff || h1.TTL != h2.TTL ||
			h1.Protocol != h2.Protocol || h1.Checksum != h2.Checksum ||
			h1.Src != h2.Src || h1.Dst != h2.Dst ||
			!bytes.Equal(h1.Options, h2.Options) {
			t.Fatalf("header changed across round trip:\n%+v\n%+v", h1, h2)
		}
		if !bytes.Equal(payload1, payload2) {
			t.Fatalf("payload changed across round trip")
		}
		if !VerifyChecksum(enc1) {
			t.Fatalf("re-marshalled datagram has bad header checksum")
		}
		enc2, err := h2.Marshal(payload2)
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not stable:\n% x\n% x", enc1, enc2)
		}
	})
}

// Package ip implements the IPv4 wire format used throughout the
// simulated network: header encode/decode with real ones'-complement
// checksums, protocol numbers, and IP-in-IP encapsulation as used by
// Mobile IP tunneling (RFC 2003).
//
// The Comma service proxy manipulates packets at this level — filters
// receive the raw bytes of a full IP datagram and may rewrite any part
// of it — so the formats here match the real protocols bit-for-bit.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Protocol numbers carried in the IPv4 Protocol field.
const (
	ProtoICMP = 1
	ProtoIPIP = 4 // IP-in-IP encapsulation (Mobile IP tunnels)
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// HeaderLen is the length of an IPv4 header without options. The
// simulator does not generate IP options, but the decoder accepts them.
const HeaderLen = 20

// MaxPacket is the largest datagram the simulated networks carry.
const MaxPacket = 65535

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad string such as "11.11.10.99". The
// string must be exactly four decimal octets — trailing characters,
// signs, or missing parts are errors (control-interface input passes
// through here, so laxness would silently accept operator typos).
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ip: parse %q: need 4 octets", s)
	}
	var oct [4]byte
	for i, ps := range parts {
		v, err := strconv.ParseUint(ps, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ip: parse %q: bad octet %q", s, ps)
		}
		oct[i] = byte(v)
	}
	return AddrFrom4(oct[0], oct[1], oct[2], oct[3]), nil
}

// MustParseAddr is ParseAddr for trusted literals; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad form of a to b. Stream keys are
// rendered once per bus event on the flow set-up and teardown path, so
// this stays clear of fmt and of the allocator.
func (a Addr) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// IsZero reports whether the address is the wildcard 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// Mask applies a prefix length, clearing host bits.
func (a Addr) Mask(prefix int) Addr {
	if prefix <= 0 {
		return 0
	}
	if prefix >= 32 {
		return a
	}
	return a & Addr(^uint32(0)<<(32-prefix))
}

// Header is a decoded IPv4 header. Fields mirror the wire layout; IHL
// and Version are implied (options are preserved verbatim in Options).
type Header struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    byte   // upper 3 bits of the fragment word
	FragOff  uint16 // 13-bit fragment offset, in 8-byte units
	TTL      byte
	Protocol byte
	Checksum uint16 // as read from the wire; recomputed on Marshal
	Src, Dst Addr
	Options  []byte // raw options, length must be a multiple of 4
}

// Flag bits for Header.Flags.
const (
	FlagDF = 0x2 // don't fragment
	FlagMF = 0x1 // more fragments
)

var (
	// ErrTruncated reports a buffer too short for the encoded header.
	ErrTruncated = errors.New("ip: truncated packet")
	// ErrVersion reports a packet whose version field is not 4.
	ErrVersion = errors.New("ip: not an IPv4 packet")
)

// HeaderLength returns the encoded header length in bytes,
// including options.
func (h *Header) HeaderLength() int { return HeaderLen + len(h.Options) }

// Marshal encodes the header followed by payload into a fresh slice,
// setting TotalLen and Checksum. The caller's Header is updated with
// the computed values.
func (h *Header) Marshal(payload []byte) ([]byte, error) {
	hl := h.HeaderLength()
	b := make([]byte, hl+len(payload))
	if err := h.MarshalInto(b); err != nil {
		return nil, err
	}
	copy(b[hl:], payload)
	return b, nil
}

// MarshalInto encodes the header into the first HeaderLength() bytes
// of datagram, setting TotalLen to len(datagram) and Checksum (both
// also updated in h). The rest of datagram is the payload, which the
// caller places — before or after, the header checksum does not cover
// it — so a transport segment can be marshalled directly behind the
// header instead of being copied there.
func (h *Header) MarshalInto(datagram []byte) error {
	optLen := len(h.Options)
	if optLen%4 != 0 || optLen > 40 {
		return fmt.Errorf("ip: bad options length %d", optLen)
	}
	hl := HeaderLen + optLen
	if len(datagram) < hl {
		return fmt.Errorf("ip: buffer of %d bytes shorter than the %d-byte header", len(datagram), hl)
	}
	if len(datagram) > MaxPacket {
		return fmt.Errorf("ip: packet too large (%d bytes)", len(datagram))
	}
	h.TotalLen = uint16(len(datagram))
	b := datagram[:hl]
	b[0] = 4<<4 | byte(hl/4)
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0 // checksum field must be zero while summing
	binary.BigEndian.PutUint32(b[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:], uint32(h.Dst))
	copy(b[20:], h.Options)
	h.Checksum = Checksum(b)
	binary.BigEndian.PutUint16(b[10:], h.Checksum)
	return nil
}

// Decode decodes the IPv4 header at the front of b into h and returns
// the payload sub-slice of b (aliasing b, not a copy). It checks b
// before it stores anything, then stores each field once, straight
// from the wire: a header built elsewhere and copied in would be read
// back wider than it was written, which defeats store forwarding on
// the proxy's per-packet path. Options aliases b, and is cleared when
// the header has none, so nothing of the header h last held survives;
// on an error h is left zero. The header checksum is not verified;
// call VerifyChecksum.
func (h *Header) Decode(b []byte) ([]byte, error) {
	hl, total, err := bounds(b)
	if err != nil {
		*h = Header{}
		return nil, err
	}
	frag := binary.BigEndian.Uint16(b[6:])
	h.TOS = b[1]
	h.TotalLen = uint16(total)
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.Flags = byte(frag >> 13)
	h.FragOff = frag & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	h.Src = Addr(binary.BigEndian.Uint32(b[12:]))
	h.Dst = Addr(binary.BigEndian.Uint32(b[16:]))
	if hl > HeaderLen {
		h.Options = b[HeaderLen:hl]
	} else {
		h.Options = nil
	}
	return b[hl:total], nil
}

// bounds checks that b starts with a whole IPv4 header and holds the
// whole datagram it announces, and returns the lengths of both.
func bounds(b []byte) (hl, total int, err error) {
	if len(b) < HeaderLen {
		return 0, 0, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return 0, 0, ErrVersion
	}
	hl, total = int(b[0]&0x0f)*4, int(binary.BigEndian.Uint16(b[2:]))
	if hl < HeaderLen || total < hl || total > len(b) {
		return 0, 0, ErrTruncated
	}
	return hl, total, nil
}

// Unmarshal decodes an IPv4 header from b (see Decode). It returns the
// decoded header and the payload sub-slice of b.
func Unmarshal(b []byte) (h Header, payload []byte, err error) {
	payload, err = h.Decode(b)
	return h, payload, err
}

// VerifyChecksum reports whether the header checksum of the encoded
// packet b is valid.
func VerifyChecksum(b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	hl := int(b[0]&0x0f) * 4
	if hl < HeaderLen || len(b) < hl {
		return false
	}
	return Checksum(b[:hl]) == 0
}

// Checksum computes the RFC 1071 Internet checksum over b. For a
// buffer whose checksum field is zeroed it returns the value to store;
// over a buffer containing a correct checksum it returns zero.
func Checksum(b []byte) uint16 {
	return finishChecksum(sumBytes(0, b))
}

// sumBytes accumulates the 16-bit ones'-complement sum of b onto acc.
//
// The sum is byte-order independent (RFC 1071 §2(B)): b is summed as
// little-endian 64-bit words with an end-around carry — one load and
// one add-with-carry per eight bytes — then folded to 16 bits and
// byte-swapped once into the big-endian value the wire format wants.
// A trailing odd byte lands in the low half of its little-endian word,
// which the swap turns into the high-order byte RFC 1071 pads to.
//
// The carry stays in the flags register along a run of adds and has to
// be turned into a value wherever the loop branches back, so the main
// loop adds 64 bytes between two such points; a 32-byte block and the
// 8-byte loop take what is left.
func sumBytes(acc uint32, b []byte) uint32 {
	var s, c uint64
	for len(b) >= 64 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[24:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[32:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[40:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[48:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[56:]), c)
		b = b[64:]
	}
	if len(b) >= 32 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	var tail uint64
	for i, x := range b {
		tail |= uint64(x) << (8 * uint(i))
	}
	s, c = bits.Add64(s, tail, c)
	s += c // cannot wrap: a sum that carried out is at most 2⁶⁴-2
	s = s>>32 + s&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return acc + uint32(bits.ReverseBytes16(uint16(s)))
}

func finishChecksum(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

// PseudoHeaderChecksum starts a transport checksum with the IPv4
// pseudo-header (src, dst, protocol, transport length) and adds the
// transport segment bytes. Used by TCP and UDP.
func PseudoHeaderChecksum(src, dst Addr, proto byte, segment []byte) uint16 {
	ph := uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(uint16(len(segment)))
	return finishChecksum(sumBytes(ph, segment))
}

// Encapsulate wraps an encoded IP packet inner in a new IP-in-IP outer
// datagram from src to dst, as a Mobile IP home agent does when
// forwarding to a care-of address.
func Encapsulate(src, dst Addr, inner []byte, id uint16) ([]byte, error) {
	outer := Header{
		TTL:      64,
		Protocol: ProtoIPIP,
		ID:       id,
		Src:      src,
		Dst:      dst,
	}
	return outer.Marshal(inner)
}

// Decapsulate strips an IP-in-IP outer header, returning a copy of the
// inner datagram. It fails if the packet is not protocol 4.
func Decapsulate(b []byte) ([]byte, error) {
	h, payload, err := Unmarshal(b)
	if err != nil {
		return nil, err
	}
	if h.Protocol != ProtoIPIP {
		return nil, fmt.Errorf("ip: decapsulate: protocol %d, want %d", h.Protocol, ProtoIPIP)
	}
	inner := make([]byte, len(payload))
	copy(inner, payload)
	return inner, nil
}

// Package udp implements the User Datagram Protocol over the simulated
// network: the wire codec and a minimal port-demultiplexing stack. The
// thesis's real-time media services (hierarchical discard, data-type
// translation) operate on UDP streams, where loss is tolerated by the
// application rather than repaired by the transport.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
)

// HeaderLen is the UDP header length.
const HeaderLen = 8

// Datagram is a decoded UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Checksum         uint16
	Payload          []byte
}

// Marshal encodes the datagram with a pseudo-header checksum.
func (d *Datagram) Marshal(src, dst ip.Addr) []byte {
	return d.AppendMarshal(nil, src, dst)
}

// AppendMarshal appends the encoded datagram to dst0, growing it as
// needed, and returns the extended slice. It lets hot paths reuse a
// scratch buffer instead of allocating per datagram; the appended
// region must not already alias d.Payload.
func (d *Datagram) AppendMarshal(dst0 []byte, src, dst ip.Addr) []byte {
	off := len(dst0)
	n := HeaderLen + len(d.Payload)
	if cap(dst0)-off < n {
		nb := make([]byte, off, off+n)
		copy(nb, dst0)
		dst0 = nb
	}
	dst0 = dst0[:off+n]
	b := dst0[off:]
	binary.BigEndian.PutUint16(b[0:], d.SrcPort)
	binary.BigEndian.PutUint16(b[2:], d.DstPort)
	binary.BigEndian.PutUint16(b[4:], uint16(n))
	b[6], b[7] = 0, 0 // checksum field must be zero while summing
	copy(b[HeaderLen:], d.Payload)
	d.Checksum = ip.PseudoHeaderChecksum(src, dst, ip.ProtoUDP, b)
	if d.Checksum == 0 {
		d.Checksum = 0xffff // RFC 768: zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[6:], d.Checksum)
	return dst0
}

// ErrTruncated reports a buffer too short to be a UDP datagram.
var ErrTruncated = errors.New("udp: truncated datagram")

// Decode decodes the UDP datagram b into d. It checks b before it
// stores anything, then stores each field once; on an error d is left
// zero. Payload aliases b.
func (d *Datagram) Decode(b []byte) error {
	var length int // stays 0, an error, when b cannot hold a header
	if len(b) >= HeaderLen {
		length = int(binary.BigEndian.Uint16(b[4:]))
	}
	if length < HeaderLen || length > len(b) {
		*d = Datagram{}
		return ErrTruncated
	}
	d.SrcPort = binary.BigEndian.Uint16(b[0:])
	d.DstPort = binary.BigEndian.Uint16(b[2:])
	d.Checksum = binary.BigEndian.Uint16(b[6:])
	d.Payload = b[HeaderLen:length]
	return nil
}

// Unmarshal decodes a UDP datagram (see Decode); Payload aliases b.
func Unmarshal(b []byte) (d Datagram, err error) {
	err = d.Decode(b)
	return d, err
}

// VerifyChecksum reports whether the datagram checksum is valid (or
// absent, which RFC 768 permits).
func VerifyChecksum(src, dst ip.Addr, b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	if binary.BigEndian.Uint16(b[6:]) == 0 {
		return true // checksum not used
	}
	return ip.PseudoHeaderChecksum(src, dst, ip.ProtoUDP, b) == 0
}

// Network is the IP service a Stack runs over (same contract as
// tcp.Network minus the clock).
type Network interface {
	SendIP(dst ip.Addr, proto byte, payload []byte)
	Addr() ip.Addr
}

// Handler consumes datagrams delivered to a bound port. payload is
// valid only during the call: it aliases the arriving datagram, which
// the network recycles when the handler returns (see netsim's package
// comment), so a handler copies whatever it keeps.
type Handler func(src ip.Addr, srcPort uint16, payload []byte)

// Stack is a minimal UDP endpoint: bind ports, send datagrams.
type Stack struct {
	net   Network
	ports map[uint16]Handler
}

// NewStack creates a UDP stack on the given host.
func NewStack(n Network) *Stack {
	return &Stack{net: n, ports: make(map[uint16]Handler)}
}

// Bind registers h to receive datagrams addressed to port.
func (s *Stack) Bind(port uint16, h Handler) error {
	if _, dup := s.ports[port]; dup {
		return fmt.Errorf("udp: port %d already bound", port)
	}
	s.ports[port] = h
	return nil
}

// Send transmits payload from srcPort to dst:dstPort.
func (s *Stack) Send(srcPort uint16, dst ip.Addr, dstPort uint16, payload []byte) {
	d := Datagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	s.net.SendIP(dst, ip.ProtoUDP, d.Marshal(s.net.Addr(), dst))
}

// Deliver hands the stack a UDP payload from the IP layer.
func (s *Stack) Deliver(src, dst ip.Addr, payload []byte) {
	if !VerifyChecksum(src, dst, payload) {
		return
	}
	d, err := Unmarshal(payload)
	if err != nil {
		return
	}
	if h, ok := s.ports[d.DstPort]; ok {
		h(src, d.SrcPort, d.Payload)
	}
}

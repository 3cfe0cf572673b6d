package filter

import (
	"encoding/binary"

	"repro/internal/ip"
)

// SteerKey extracts the stream key of a raw IPv4 datagram without
// building a decoded view — the sharded
// data plane's dispatcher runs it once per packet before handing the
// raw bytes to a shard, so it must be allocation-free.
//
// The result must agree exactly with Parse: ok is false iff Parse
// would return an error, and on success the key equals Parse(raw).Key,
// including the "ports stay zero" behavior when the transport header
// fails to decode (truncated TCP/UDP header, malformed TCP options,
// bad UDP length field). FuzzSteerKey gates that parity.
func SteerKey(raw []byte) (Key, bool) {
	if len(raw) < ip.HeaderLen || raw[0]>>4 != 4 {
		return Key{}, false
	}
	hl := int(raw[0]&0x0f) * 4
	if hl < ip.HeaderLen || len(raw) < hl {
		return Key{}, false
	}
	totalLen := int(binary.BigEndian.Uint16(raw[2:]))
	if totalLen < hl || totalLen > len(raw) {
		return Key{}, false
	}
	k := Key{
		SrcIP: ip.Addr(binary.BigEndian.Uint32(raw[12:])),
		DstIP: ip.Addr(binary.BigEndian.Uint32(raw[16:])),
	}
	t := raw[hl:totalLen]
	switch raw[9] {
	case ip.ProtoTCP:
		if tcpHeaderOK(t) {
			k.SrcPort = binary.BigEndian.Uint16(t[0:])
			k.DstPort = binary.BigEndian.Uint16(t[2:])
		}
	case ip.ProtoUDP:
		// Mirrors udp.Datagram.Decode: 8-byte header and a sane length field.
		if len(t) >= 8 {
			if l := int(binary.BigEndian.Uint16(t[4:])); l >= 8 && l <= len(t) {
				k.SrcPort = binary.BigEndian.Uint16(t[0:])
				k.DstPort = binary.BigEndian.Uint16(t[2:])
			}
		}
	}
	return k, true
}

// tcpHeaderOK mirrors tcp.Segment.Decode's accept/reject decision (not its
// decoding): header length bounds plus the options walk, which rejects
// segments whose option list is malformed.
func tcpHeaderOK(b []byte) bool {
	if len(b) < 20 {
		return false
	}
	hl := int(b[12]>>4) * 4
	if hl < 20 || len(b) < hl {
		return false
	}
	opts := b[20:hl]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return false
			}
			opts = opts[opts[1]:]
		}
	}
	return true
}

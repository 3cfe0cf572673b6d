// Package tcp implements the Transmission Control Protocol over the
// simulated network: the wire-format segment codec (the header of
// thesis Fig 8.1) and a full endpoint with sliding-window flow control,
// Jacobson/Karels RTO estimation, slow start, congestion avoidance,
// fast retransmit and fast recovery, exponential backoff, and
// zero-window persistence.
//
// The endpoint deliberately reproduces the behaviours the thesis's
// filters exploit or correct: it interprets loss as congestion (so the
// snoop filter has something to fix), respects the advertised receive
// window verbatim (so the wsize filter can throttle or stall it), and
// acknowledges cumulatively by sequence number (so the TTSF's
// sequence-space remapping is observable end to end).
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/ip"
)

// Header flag bits (thesis Fig 8.1).
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// HeaderLen is the length of a TCP header without options.
const HeaderLen = 20

// Segment is a decoded TCP segment: header fields plus payload.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Checksum         uint16 // as read; recomputed on Marshal
	Urgent           uint16
	MSS              uint16 // MSS option value; 0 = option absent
	Payload          []byte
}

// FlagString renders the flag bits in tcpdump style, e.g. "SA" for
// SYN|ACK.
func (s *Segment) FlagString() string {
	var b strings.Builder
	for _, f := range []struct {
		bit  byte
		name byte
	}{
		{FlagFIN, 'F'}, {FlagSYN, 'S'}, {FlagRST, 'R'},
		{FlagPSH, 'P'}, {FlagACK, 'A'}, {FlagURG, 'U'},
	} {
		if s.Flags&f.bit != 0 {
			b.WriteByte(f.name)
		}
	}
	if b.Len() == 0 {
		return "."
	}
	return b.String()
}

// SeqLen returns the amount of sequence space the segment consumes:
// payload length plus one for each of SYN and FIN.
func (s *Segment) SeqLen() uint32 {
	n := uint32(len(s.Payload))
	if s.Flags&FlagSYN != 0 {
		n++
	}
	if s.Flags&FlagFIN != 0 {
		n++
	}
	return n
}

// HeaderLength returns the encoded header length in bytes, including
// the MSS option when present.
func (s *Segment) HeaderLength() int {
	if s.MSS != 0 {
		return HeaderLen + 4
	}
	return HeaderLen
}

// Marshal encodes the segment, computing the transport checksum over
// the IPv4 pseudo-header for src→dst.
func (s *Segment) Marshal(src, dst ip.Addr) []byte {
	return s.AppendMarshal(nil, src, dst)
}

// AppendMarshal appends the encoded segment to dst0, growing it as
// needed, and returns the extended slice. It lets hot paths reuse a
// scratch buffer instead of allocating per segment; the appended
// region must not already alias s.Payload.
func (s *Segment) AppendMarshal(dst0 []byte, src, dst ip.Addr) []byte {
	hl := s.HeaderLength()
	off := len(dst0)
	dst0 = growSlice(dst0, hl+len(s.Payload))
	b := dst0[off:]
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], s.Seq)
	binary.BigEndian.PutUint32(b[8:], s.Ack)
	b[12] = byte(hl/4) << 4
	b[13] = s.Flags
	binary.BigEndian.PutUint16(b[14:], s.Window)
	b[16], b[17] = 0, 0 // checksum field must be zero while summing
	binary.BigEndian.PutUint16(b[18:], s.Urgent)
	if s.MSS != 0 {
		b[20] = 2 // kind: MSS
		b[21] = 4 // length
		binary.BigEndian.PutUint16(b[22:], s.MSS)
	}
	copy(b[hl:], s.Payload)
	s.Checksum = ip.PseudoHeaderChecksum(src, dst, ip.ProtoTCP, b)
	binary.BigEndian.PutUint16(b[16:], s.Checksum)
	return dst0
}

// growSlice extends b by n bytes, reallocating only when capacity
// runs out (the reused-buffer steady state never does).
func growSlice(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// Errors returned by Decode and VerifyChecksum.
var (
	ErrTruncated = errors.New("tcp: truncated segment")
	ErrChecksum  = errors.New("tcp: bad checksum")
)

// Decode decodes the TCP segment b into s. It checks b, options
// included, before it stores anything, then stores each field once,
// straight from the wire (see ip.Header.Decode for why). MSS is
// cleared when the segment carries no MSS option, so nothing of the
// segment s last held survives; on an error s is left zero. Payload
// aliases b. The checksum is not verified here; use VerifyChecksum
// with the pseudo-header addresses.
func (s *Segment) Decode(b []byte) error {
	hl, mss, err := checkHeader(b)
	if err != nil {
		*s = Segment{}
		return err
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:])
	s.DstPort = binary.BigEndian.Uint16(b[2:])
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = b[13]
	s.Window = binary.BigEndian.Uint16(b[14:])
	s.Checksum = binary.BigEndian.Uint16(b[16:])
	s.Urgent = binary.BigEndian.Uint16(b[18:])
	s.MSS = mss
	s.Payload = b[hl:]
	return nil
}

// checkHeader checks that b starts with a whole TCP header whose
// options are well formed, and returns the header's length and the
// value of its MSS option (0 when it has none).
func checkHeader(b []byte) (hl int, mss uint16, err error) {
	if len(b) < HeaderLen {
		return 0, 0, ErrTruncated
	}
	hl = int(b[12]>>4) * 4
	if hl < HeaderLen || len(b) < hl {
		return 0, 0, ErrTruncated
	}
	opts := b[HeaderLen:hl]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return 0, 0, ErrTruncated
			}
			if opts[0] == 2 && opts[1] == 4 {
				mss = binary.BigEndian.Uint16(opts[2:])
			}
			opts = opts[opts[1]:]
		}
	}
	return hl, mss, nil
}

// Unmarshal decodes a TCP segment (see Decode). Payload aliases b.
func Unmarshal(b []byte) (s Segment, err error) {
	err = s.Decode(b)
	return s, err
}

// VerifyChecksum reports whether the encoded segment b carried between
// src and dst has a valid transport checksum.
func VerifyChecksum(src, dst ip.Addr, b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	return ip.PseudoHeaderChecksum(src, dst, ip.ProtoTCP, b) == 0
}

// String summarizes the segment for traces:
// "1000:2000(1000) ack 500 win 8760 [PA]".
func (s *Segment) String() string {
	return fmt.Sprintf("%d:%d(%d) ack %d win %d [%s]",
		s.Seq, s.Seq+uint32(len(s.Payload)), len(s.Payload), s.Ack, s.Window, s.FlagString())
}

// SeqLT reports a < b in 32-bit sequence-number space.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLE reports a <= b in sequence space.
func SeqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqMax returns the later of a and b in sequence space.
func seqMax(a, b uint32) uint32 {
	if SeqLT(a, b) {
		return b
	}
	return a
}

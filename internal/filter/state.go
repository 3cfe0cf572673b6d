package filter

import (
	"encoding/binary"
	"errors"

	"repro/internal/ip"
)

// ErrStateTruncated marks a snapshot that ends before the fields it
// declares — a StateReader never reads past the buffer and never
// panics on short input.
var ErrStateTruncated = errors.New("filter: truncated state snapshot")

// StateWriter appends big-endian fields to a snapshot buffer: the one
// encoding of filter state blobs (StateSnapshotter) and of the stream
// snapshot that carries them between proxies.
type StateWriter struct{ B []byte }

func (w *StateWriter) U8(v byte)    { w.B = append(w.B, v) }
func (w *StateWriter) U16(v uint16) { w.B = binary.BigEndian.AppendUint16(w.B, v) }
func (w *StateWriter) U32(v uint32) { w.B = binary.BigEndian.AppendUint32(w.B, v) }
func (w *StateWriter) I64(v int64)  { w.B = binary.BigEndian.AppendUint64(w.B, uint64(v)) }

// Bytes writes a u32 length-prefixed byte string.
func (w *StateWriter) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.B = append(w.B, v...)
}

// String writes a u16 length-prefixed string, cut at 65535 bytes.
func (w *StateWriter) String(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	w.U16(uint16(len(s)))
	w.B = append(w.B, s...)
}

// Key writes srcIP u32 | srcPort u16 | dstIP u32 | dstPort u16.
func (w *StateWriter) Key(k Key) {
	w.U32(uint32(k.SrcIP))
	w.U16(k.SrcPort)
	w.U32(uint32(k.DstIP))
	w.U16(k.DstPort)
}

// StateReader consumes the fields of a snapshot with bounds checking:
// the first short read latches Err and every later read returns zero
// values, so decoders can parse straight-line and check Err once.
// Every declared length is validated against the remaining buffer
// before any allocation, so a lying prefix cannot force one.
type StateReader struct {
	B   []byte // what is left to read
	Err error
}

func (r *StateReader) take(n int) []byte {
	if r.Err != nil || n < 0 || len(r.B) < n {
		r.Err = ErrStateTruncated
		return nil
	}
	v := r.B[:n]
	r.B = r.B[n:]
	return v
}

func (r *StateReader) U8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *StateReader) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

func (r *StateReader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *StateReader) I64() int64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(v))
}

// Bytes reads a u32 length-prefixed byte string into a copy; an empty
// one reads as nil.
func (r *StateReader) Bytes() []byte {
	n := int(r.U32())
	if n == 0 {
		return nil
	}
	v := r.take(n)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// String reads a u16 length-prefixed string.
func (r *StateReader) String() string {
	return string(r.take(int(r.U16())))
}

// Key reads what StateWriter.Key wrote.
func (r *StateReader) Key() Key {
	return Key{
		SrcIP:   ip.Addr(r.U32()),
		SrcPort: r.U16(),
		DstIP:   ip.Addr(r.U32()),
		DstPort: r.U16(),
	}
}

// Done reports decode success: no field error and no trailing bytes.
func (r *StateReader) Done() error {
	if r.Err != nil {
		return r.Err
	}
	if len(r.B) != 0 {
		return errors.New("filter: trailing bytes in state snapshot")
	}
	return nil
}

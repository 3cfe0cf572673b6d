// Package migrate implements live proxy-to-proxy stream migration: a
// versioned wire codec for stream snapshots (this file) and a
// crash-safe two-phase transfer protocol between service proxies
// (manager.go).
//
// A snapshot is the self-contained description of one serviced stream:
// its exact-key filter bindings, the serialized per-filter state of
// every attachment implementing filter.StateSnapshotter, and the
// per-stream accounting. The layout is length-framed throughout and
// closed by a SHA-256 trailer over everything before it, so a
// corrupted or truncated snapshot is rejected before any of it is
// installed.
//
//	magic "CMG1" (4) | version (1) | key (12)
//	| pkts i64 | bytes i64 | revPkts i64 | revBytes i64
//	| nBindings u16 | binding...
//	| nStates u16 | state...
//	| sha256 (32, over all preceding bytes)
//
//	binding: name (u16-len + bytes) | key (12) | nArgs u16 | arg (u16-len + bytes)...
//	state:   name (u16-len + bytes) | key (12) | ordinal u16 | blob (u32-len + bytes)
//
// Keys serialize as srcIP u32 | srcPort u16 | dstIP u32 | dstPort u16,
// big-endian. All decode errors are typed; Decode never panics on
// malformed input and never allocates more than the input's own length
// plus small constants, however the length prefixes lie.
package migrate

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/filter"
	"repro/internal/proxy"
)

// SnapshotVersion is the current codec version. A decoder rejects
// snapshots from a newer (or unknown older) codec rather than guessing
// at their layout.
const SnapshotVersion = 1

// MaxSnapshotSize bounds an encoded snapshot. Decode rejects longer
// inputs up front, and the transfer protocol refuses to buffer past it,
// so a corrupt length field cannot balloon memory on either peer.
const MaxSnapshotSize = 1 << 20

var snapshotMagic = [4]byte{'C', 'M', 'G', '1'}

// Typed decode errors, distinguishable by errors.Is.
var (
	ErrBadMagic   = errors.New("migrate: bad snapshot magic")
	ErrBadVersion = errors.New("migrate: unsupported snapshot version")
	ErrTruncated  = errors.New("migrate: truncated snapshot")
	ErrOversize   = errors.New("migrate: snapshot exceeds size bound")
	ErrChecksum   = errors.New("migrate: snapshot checksum mismatch")
)

// EncodeSnapshot serializes a stream export for the wire.
func EncodeSnapshot(ex *proxy.StreamExport) ([]byte, error) {
	w := filter.StateWriter{B: make([]byte, 0, 256)}
	w.B = append(w.B, snapshotMagic[:]...)
	w.U8(SnapshotVersion)
	w.Key(ex.Key)
	w.I64(ex.Pkts)
	w.I64(ex.Bytes)
	w.I64(ex.RevPkts)
	w.I64(ex.RevBytes)
	if len(ex.Bindings) > 0xffff || len(ex.States) > 0xffff {
		return nil, fmt.Errorf("migrate: snapshot of %v has too many sections", ex.Key)
	}
	w.U16(uint16(len(ex.Bindings)))
	for _, bd := range ex.Bindings {
		w.String(bd.Filter)
		w.Key(bd.Key)
		if len(bd.Args) > 0xffff {
			return nil, fmt.Errorf("migrate: binding %s has too many args", bd.Filter)
		}
		w.U16(uint16(len(bd.Args)))
		for _, a := range bd.Args {
			w.String(a)
		}
	}
	w.U16(uint16(len(ex.States)))
	for _, st := range ex.States {
		w.String(st.Filter)
		w.Key(st.Key)
		w.U16(st.Ordinal)
		w.Bytes(st.State)
	}
	sum := sha256.Sum256(w.B)
	b := append(w.B, sum[:]...)
	if len(b) > MaxSnapshotSize {
		return nil, fmt.Errorf("%w: %d bytes encoding %v", ErrOversize, len(b), ex.Key)
	}
	return b, nil
}

// DecodeSnapshot parses and integrity-checks an encoded snapshot.
func DecodeSnapshot(b []byte) (*proxy.StreamExport, error) {
	if len(b) > MaxSnapshotSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, len(b))
	}
	if len(b) < len(snapshotMagic)+1+sha256.Size {
		return nil, ErrTruncated
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, ErrChecksum
	}
	// The length check above covers magic and version.
	if [4]byte(body[:4]) != snapshotMagic {
		return nil, ErrBadMagic
	}
	if v := body[4]; v != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	r := &filter.StateReader{B: body[5:]}
	ex := &proxy.StreamExport{}
	ex.Key = r.Key()
	ex.Pkts = r.I64()
	ex.Bytes = r.I64()
	ex.RevPkts = r.I64()
	ex.RevBytes = r.I64()
	nb := int(r.U16())
	for i := 0; i < nb && r.Err == nil; i++ {
		var bd proxy.BindingExport
		bd.Filter = r.String()
		bd.Key = r.Key()
		na := int(r.U16())
		for j := 0; j < na && r.Err == nil; j++ {
			bd.Args = append(bd.Args, r.String())
		}
		ex.Bindings = append(ex.Bindings, bd)
	}
	ns := int(r.U16())
	for i := 0; i < ns && r.Err == nil; i++ {
		var st proxy.FilterState
		st.Filter = r.String()
		st.Key = r.Key()
		st.Ordinal = r.U16()
		st.State = r.Bytes()
		ex.States = append(ex.States, st)
	}
	if r.Err != nil {
		return nil, ErrTruncated
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r.B))
	}
	return ex, nil
}

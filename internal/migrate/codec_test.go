package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/proxy"
)

func testKey() filter.Key {
	return filter.Key{
		SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: 5001,
		DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 9001,
	}
}

func testExport() *proxy.StreamExport {
	k := testKey()
	return &proxy.StreamExport{
		Key:      k,
		Pkts:     1234,
		Bytes:    987654,
		RevPkts:  555,
		RevBytes: 4242,
		Bindings: []proxy.BindingExport{
			{Filter: "tcp", Key: k, Args: nil},
			{Filter: "ttsf", Key: k, Args: []string{"snoop"}},
			{Filter: "wsize", Key: k.Reverse(), Args: []string{"cap", "4096"}},
		},
		States: []proxy.FilterState{
			{Filter: "ttsf", Key: k, Ordinal: 0, State: []byte{1, 2, 3, 4, 5}},
			{Filter: "wsize", Key: k.Reverse(), Ordinal: 0, State: []byte{0x10, 0x00}},
			{Filter: "wsize", Key: k.Reverse(), Ordinal: 1, State: nil},
		},
	}
}

// reseal recomputes the SHA-256 trailer over a mutated body, so tests
// can reach the structural decode errors behind the checksum gate.
func reseal(b []byte) []byte {
	body := b[:len(b)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestSnapshotRoundTrip(t *testing.T) {
	ex := testExport()
	b, err := EncodeSnapshot(ex)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Canonical encoding: nil and empty blobs both decode to nil.
	want := testExport()
	want.States[2].State = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// And re-encoding is byte-identical.
	b2, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode not canonical: %d vs %d bytes", len(b), len(b2))
	}
}

func TestSnapshotEmptySections(t *testing.T) {
	ex := &proxy.StreamExport{Key: testKey()}
	b, err := EncodeSnapshot(ex)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ex) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestSnapshotChecksum(t *testing.T) {
	b, _ := EncodeSnapshot(testExport())
	for _, i := range []int{0, 5, len(b) / 2, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[i] ^= 0x80
		if _, err := DecodeSnapshot(c); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip byte %d: got %v, want ErrChecksum", i, err)
		}
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	b, _ := EncodeSnapshot(testExport())
	c := append([]byte(nil), b...)
	c[0] = 'X'
	if _, err := DecodeSnapshot(reseal(c)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestSnapshotBadVersion(t *testing.T) {
	b, _ := EncodeSnapshot(testExport())
	c := append([]byte(nil), b...)
	c[4] = 99
	if _, err := DecodeSnapshot(reseal(c)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("got %v, want ErrBadVersion", err)
	}
}

func TestSnapshotTruncated(t *testing.T) {
	if _, err := DecodeSnapshot(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil input: got %v, want ErrTruncated", err)
	}
	if _, err := DecodeSnapshot([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short input: got %v, want ErrTruncated", err)
	}
	// A binding count larger than the sections present: the checksum is
	// valid, the structure is not.
	b, _ := EncodeSnapshot(testExport())
	off := 4 + 1 + 12 + 4*8 // magic, version, key, four counters
	c := append([]byte(nil), b...)
	binary.BigEndian.PutUint16(c[off:], 500)
	if _, err := DecodeSnapshot(reseal(c)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying binding count: got %v, want ErrTruncated", err)
	}
}

func TestSnapshotLyingBlobLength(t *testing.T) {
	// A state blob declaring far more bytes than follow must fail
	// without allocating the declared amount.
	ex := &proxy.StreamExport{
		Key:    testKey(),
		States: []proxy.FilterState{{Filter: "ttsf", Key: testKey(), State: []byte{1, 2, 3}}},
	}
	b, _ := EncodeSnapshot(ex)
	// The blob length field sits 4 bytes before its 3 payload bytes,
	// which are the last bytes before the trailer.
	off := len(b) - sha256.Size - 3 - 4
	c := append([]byte(nil), b...)
	binary.BigEndian.PutUint32(c[off:], 900_000)
	if _, err := DecodeSnapshot(reseal(c)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying blob length: got %v, want ErrTruncated", err)
	}
}

func TestSnapshotOversize(t *testing.T) {
	if _, err := DecodeSnapshot(make([]byte, MaxSnapshotSize+1)); !errors.Is(err, ErrOversize) {
		t.Fatalf("got %v, want ErrOversize", err)
	}
	big := &proxy.StreamExport{
		Key:    testKey(),
		States: []proxy.FilterState{{Filter: "ttsf", Key: testKey(), State: make([]byte, MaxSnapshotSize)}},
	}
	if _, err := EncodeSnapshot(big); !errors.Is(err, ErrOversize) {
		t.Fatalf("encode oversize: got %v, want ErrOversize", err)
	}
}

func TestSnapshotTrailingBytes(t *testing.T) {
	b, _ := EncodeSnapshot(testExport())
	c := append([]byte(nil), b[:len(b)-sha256.Size]...)
	c = append(c, 0xAA, 0xBB)
	if _, err := DecodeSnapshot(reseal(c)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing bytes: got %v, want ErrTruncated", err)
	}
}

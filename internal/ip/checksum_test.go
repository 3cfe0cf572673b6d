package ip

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// sumBytesRef is the two-bytes-per-iteration sum sumBytes replaced,
// kept as the reference the word-wise kernel is checked against.
func sumBytesRef(acc uint32, b []byte) uint32 {
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		acc += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		acc += uint32(b[len(b)-1]) << 8
	}
	return acc
}

// checksumAccs are start accumulators: zero, values a pseudo-header
// sum produces, and ones whose fold carries more than once. The
// reference must not overflow its uint32 on top of them.
var checksumAccs = []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, 0x7fffffff}

func checkSumBytes(t *testing.T, acc uint32, b []byte) {
	t.Helper()
	if got, want := finishChecksum(sumBytes(acc, b)), finishChecksum(sumBytesRef(acc, b)); got != want {
		t.Fatalf("len %d acc %#x: checksum %#04x, reference %#04x", len(b), acc, got, want)
	}
}

// TestSumBytesMatchesReference: the word-wise sum finishes to the same
// checksum as the reference for every length 0–1600 (so every tail of
// the 32- and 8-byte loops, odd ones included), at every alignment of
// the slice start, over pseudo-random, all-zero and all-0xFF bytes
// (the last keeps the end-around carry set on every add), from each
// start accumulator.
func TestSumBytesMatchesReference(t *testing.T) {
	const max = 1600
	random := make([]byte, max+8)
	x := uint32(0x9e3779b9)
	for i := range random {
		x = x*1664525 + 1013904223
		random[i] = byte(x >> 24)
	}
	ones := make([]byte, max+8)
	for i := range ones {
		ones[i] = 0xff
	}
	zeros := make([]byte, max+8)
	for _, buf := range [][]byte{random, ones, zeros} {
		for n := 0; n <= max; n++ {
			for _, acc := range checksumAccs {
				checkSumBytes(t, acc, buf[:n])
			}
			checkSumBytes(t, 0, buf[n%8:n%8+n])
		}
	}
}

// FuzzChecksum holds the same equality over arbitrary bytes and start
// accumulators the reference cannot overflow on.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xffff), []byte{0xff})
	f.Add(uint32(0x1fffe), []byte("an odd number of bytes, longer than one 32-byte block"))
	f.Fuzz(func(t *testing.T, acc uint32, b []byte) {
		if len(b) > MaxPacket {
			b = b[:MaxPacket]
		}
		checkSumBytes(t, acc>>1, b)
	})
}

// BenchmarkChecksum times the Internet checksum over an IP header (20
// bytes), a mid-size segment (532) and an MSS-size one (1460): the
// sums every re-marshal and every forwarding hop pay.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{20, 532, 1460} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i*31 + i/253)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink += Checksum(buf)
			}
			checksumSink = sink
		})
	}
}

// checksumSink keeps BenchmarkChecksum's sums live.
var checksumSink uint16

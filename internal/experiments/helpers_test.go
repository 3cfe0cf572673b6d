package experiments

import (
	"crypto/sha256"
	"testing"
)

// TestPatternMatchesFormula checks the doubled fill against the
// per-byte formula it replaces, around every period boundary.
func TestPatternMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 253, patternPeriod - 1, patternPeriod, patternPeriod + 1, 3*patternPeriod + 5, 8 << 20} {
		b := pattern(n)
		if len(b) != n {
			t.Fatalf("pattern(%d) has %d bytes", n, len(b))
		}
		for i, c := range b {
			if want := byte(i*31 + i/253); c != want {
				t.Fatalf("pattern(%d)[%d] = %#x, want %#x", n, i, c, want)
			}
		}
	}
}

// TestMMWavePayloadSum: the digest the mmwave scenario prints for its
// legs is the digest of the payload each call builds and sends.
func TestMMWavePayloadSum(t *testing.T) {
	if mmPayloadSum() != sha256.Sum256(pattern(8<<20)) {
		t.Fatal("cached mmwave digest differs from the payload's")
	}
}

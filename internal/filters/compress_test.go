package filters

import (
	"bytes"
	"compress/flate"
	"testing"
)

// freshFrame is CompressPayload as it was before writers were pooled:
// a new flate.Writer per payload.
func freshFrame(t *testing.T, payload []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte(tagCompressed)
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(payload)
	w.Close()
	if buf.Len() >= len(payload)+1 {
		return append([]byte{tagStored}, payload...)
	}
	return buf.Bytes()
}

// TestPooledCodecFramesAsFresh: a recycled writer frames every payload
// byte for byte as a new one would, at every level, and a recycled
// reader decodes after an earlier frame failed to.
func TestPooledCodecFramesAsFresh(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte("the thesis's wireless link "), 40),
		{1},
		make([]byte, 1460),
		[]byte("short, incompressible? no: short and stored"),
	}
	for round := 0; round < 2; round++ { // the second round runs on recycled codecs
		for level := 1; level <= 9; level++ {
			for i, p := range payloads {
				got := CompressPayload(p, level)
				if want := freshFrame(t, p, level); !bytes.Equal(got, want) {
					t.Fatalf("round %d level %d payload %d: frame differs from a fresh writer's", round, level, i)
				}
				if _, err := DecompressPayload([]byte{tagCompressed, 0xff, 0xff}); err == nil {
					t.Fatal("a corrupt frame decoded")
				}
				out, err := DecompressPayload(got)
				if err != nil || !bytes.Equal(out, p) {
					t.Fatalf("round %d level %d payload %d: round trip failed (%v)", round, level, i, err)
				}
			}
		}
	}
}

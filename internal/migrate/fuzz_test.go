package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/proxy"
)

// FuzzMigrationSnapshotDecode drives DecodeSnapshot with arbitrary
// bytes: it must never panic, never allocate past the input's own
// length (a lying length prefix is the classic trap), and report only
// the typed codec errors. Anything it does accept must re-encode
// byte-identically — the codec is canonical, which is what makes the
// chaos scenarios byte-reproducible.
func FuzzMigrationSnapshotDecode(f *testing.F) {
	valid, err := EncodeSnapshot(testExport())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-sha256.Size]) // trailer gone
	f.Add(valid[:13])                     // mid-header
	f.Add([]byte{})
	f.Add([]byte("CMG1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	empty, _ := EncodeSnapshot(&proxy.StreamExport{Key: testKey()})
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := DecodeSnapshot(data)
		if err != nil {
			if ex != nil {
				t.Fatalf("error %v with non-nil export", err)
			}
			return
		}
		re, err := EncodeSnapshot(ex)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d in, %d out", len(data), len(re))
		}
	})
}

// FuzzMigrateFrames feeds a byte stream from a peer to the frame
// splitter in pieces (cuts gives the piece lengths, the last piece
// takes the rest). Any split must yield the frames of the whole stream
// and leave the same tail; a header claiming more than maxFrame must
// be rejected on the very piece that completes it, before any of its
// payload is waited for; nothing may panic.
func FuzzMigrateFrames(f *testing.F) {
	snap, err := EncodeSnapshot(testExport())
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for typ := msgOffer; typ <= msgGone; typ++ {
		var payload []byte
		switch typ {
		case msgOffer:
			payload = snap
		case msgNak:
			payload = []byte("migrate: bad snapshot")
		}
		stream = append(stream, encodeFrame(typ, uint64(typ)<<56|7, payload)...)
	}
	oversized := encodeFrame(msgOffer, 1, nil)
	binary.BigEndian.PutUint32(oversized[9:], maxFrame+1)
	f.Add(stream, []byte{0, 12, 13, 200, 7})
	f.Add(append(append(encodeFrame(msgDone, 2, nil), oversized...), 0xAB, 0xCD), []byte{20, 3})
	f.Add(oversized[:11], []byte{5}) // header cut mid-length
	f.Add(stream[:len(stream)-3], []byte{255, 255})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole, wholeRest, wholeErr := splitFrames(data)
		off := 0
		for _, fr := range whole {
			off += frameHeader + len(fr.payload)
		}
		bad := -1 // where the rejected header ends
		if wholeErr != nil {
			if n := binary.BigEndian.Uint32(data[off+9 : off+frameHeader]); n <= maxFrame {
				t.Fatalf("rejected a header claiming %d bytes", n)
			}
			bad = off + frameHeader
		} else if len(wholeRest) >= frameHeader {
			if n := binary.BigEndian.Uint32(wholeRest[9:frameHeader]); n > maxFrame {
				t.Fatalf("buffered past a header claiming %d bytes", n)
			}
		}

		var got []frame
		var buf []byte
		for fed, i := 0, 0; fed < len(data); i++ {
			n := len(data) - fed
			if i < len(cuts) {
				n = min(n, int(cuts[i])+1)
			}
			fed += n
			frames, rest, err := splitFrames(append(buf, data[fed-n:fed]...))
			got, buf = append(got, frames...), rest
			if err != nil {
				if bad < 0 || fed-n >= bad || fed < bad {
					t.Fatalf("rejected on bytes %d..%d, oversized header ends at %d", fed-n, fed, bad)
				}
				break
			}
			if bad >= 0 && fed >= bad {
				t.Fatalf("oversized header ending at %d accepted through byte %d", bad, fed)
			}
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("split stream gave %d frames, whole stream %d", len(got), len(whole))
		}
		if wholeErr == nil && !bytes.Equal(buf, wholeRest) {
			t.Fatalf("split stream left %d bytes, whole stream %d", len(buf), len(wholeRest))
		}
	})
}

package filters

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
)

// richTTSF builds an instance with every flag and field populated the
// way a mid-stream snoop/transform leaves them.
func richTTSF() *ttsfInst {
	t := &ttsfInst{
		started:       true,
		frontier:      99173,
		haveMobileAck: true,
		mobileAckNew:  88001,
		haveAckFwd:    true,
		maxAckFwd:     91234,
		haveTemplate:  true,
		tmplSeq:       77001,
		tmplWindow:    8192,
		tmplSrc:       ip.MustParseAddr("11.11.10.10"),
		tmplDst:       ip.MustParseAddr("11.11.10.99"),
		stats: TTSFStats{
			Edits: 12, BytesIn: 34567, BytesOut: 34000,
			Reconstructed: 3, SynthesizedAcks: 7, Unreconstructable: 1,
		},
		edits: []edit{
			{origStart: 1000, origLen: 100, newBytes: []byte("shortened")},
			{origStart: 2000, origLen: 50, newBytes: nil}, // dropped region
			{origStart: 3000, origLen: 10, newBytes: bytes.Repeat([]byte{0xAB}, 400)},
		},
	}
	t.reindex(-512) // the pruned edits' delta
	return t
}

func TestTTSFSnapshotRoundTrip(t *testing.T) {
	src := richTTSF()
	snap, err := src.SnapshotState()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	dst := &ttsfInst{pendingValid: true, pendingSeq: 42, pendingOrig: []byte{1}}
	if err := dst.RestoreState(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dst.pendingValid {
		t.Fatal("restore must invalidate the pending in-packet snapshot")
	}
	if dst.started != src.started || dst.frontier != src.frontier || dst.total != src.total ||
		dst.haveMobileAck != src.haveMobileAck || dst.mobileAckNew != src.mobileAckNew ||
		dst.haveAckFwd != src.haveAckFwd || dst.maxAckFwd != src.maxAckFwd ||
		dst.haveTemplate != src.haveTemplate || dst.tmplSeq != src.tmplSeq ||
		dst.tmplWindow != src.tmplWindow || dst.tmplSrc != src.tmplSrc || dst.tmplDst != src.tmplDst ||
		dst.stats != src.stats {
		t.Fatalf("scalar state mismatch:\n got %+v\nwant %+v", dst, src)
	}
	if len(dst.edits) != len(src.edits) {
		t.Fatalf("edit count: got %d, want %d", len(dst.edits), len(src.edits))
	}
	for i := range src.edits {
		if dst.edits[i].origStart != src.edits[i].origStart ||
			dst.edits[i].origLen != src.edits[i].origLen ||
			!bytes.Equal(dst.edits[i].newBytes, src.edits[i].newBytes) {
			t.Fatalf("edit %d mismatch: got %+v, want %+v", i, dst.edits[i], src.edits[i])
		}
	}
	// Byte-exactness: the restored instance snapshots identically.
	snap2, err := dst.SnapshotState()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(snap), len(snap2))
	}
}

// TestTTSFSnapshotProperty round-trips randomized instances: for any
// state, restore(snapshot(x)) re-snapshots byte-identically.
func TestTTSFSnapshotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	for trial := 0; trial < 200; trial++ {
		src := &ttsfInst{
			started:       rng.Intn(2) == 1,
			frontier:      rng.Uint32(),
			haveMobileAck: rng.Intn(2) == 1,
			mobileAckNew:  rng.Uint32(),
			haveAckFwd:    rng.Intn(2) == 1,
			maxAckFwd:     rng.Uint32(),
			haveTemplate:  rng.Intn(2) == 1,
			tmplSeq:       rng.Uint32(),
			tmplWindow:    uint16(rng.Intn(1 << 16)),
			tmplSrc:       ip.Addr(rng.Uint32()),
			tmplDst:       ip.Addr(rng.Uint32()),
			stats: TTSFStats{
				Edits: rng.Int63n(1 << 30), BytesIn: rng.Int63n(1 << 40),
				BytesOut: rng.Int63n(1 << 40), Reconstructed: rng.Int63n(100),
				SynthesizedAcks: rng.Int63n(100), Unreconstructable: rng.Int63n(10),
			},
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			nb := make([]byte, rng.Intn(64))
			rng.Read(nb)
			src.edits = append(src.edits, edit{
				origStart: rng.Uint32(), origLen: rng.Uint32() % 1500, newBytes: nb,
			})
		}
		src.reindex(rng.Int63() - 1<<62)
		snap, err := src.SnapshotState()
		if err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		dst := &ttsfInst{}
		if err := dst.RestoreState(snap); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		snap2, err := dst.SnapshotState()
		if err != nil {
			t.Fatalf("trial %d: re-snapshot: %v", trial, err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("trial %d: round trip not byte-exact", trial)
		}
	}
}

func TestTTSFRestoreErrors(t *testing.T) {
	snap, err := richTTSF().SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail cleanly, never panic.
	for n := 0; n < len(snap); n++ {
		if err := (&ttsfInst{}).RestoreState(snap[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if err := (&ttsfInst{}).RestoreState(append(append([]byte(nil), snap...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A failed restore must not clobber the instance.
	dst := richTTSF()
	before, _ := dst.SnapshotState()
	if err := dst.RestoreState(snap[:len(snap)/2]); err == nil {
		t.Fatal("half snapshot accepted")
	}
	after, _ := dst.SnapshotState()
	if !bytes.Equal(before, after) {
		t.Fatal("failed restore mutated the instance")
	}
}

func TestWSizeCapSnapshot(t *testing.T) {
	for _, capBytes := range []uint16{0, 1, 255, 4096, 65535} {
		src := &wsizeCapInst{capBytes: capBytes}
		snap, err := src.SnapshotState()
		if err != nil {
			t.Fatalf("cap %d: snapshot: %v", capBytes, err)
		}
		if len(snap) != 2 {
			t.Fatalf("cap %d: snapshot is %d bytes, want 2", capBytes, len(snap))
		}
		dst := &wsizeCapInst{}
		if err := dst.RestoreState(snap); err != nil {
			t.Fatalf("cap %d: restore: %v", capBytes, err)
		}
		if dst.capBytes != capBytes {
			t.Fatalf("cap %d: restored %d", capBytes, dst.capBytes)
		}
	}
	for _, bad := range [][]byte{nil, {1}, {1, 2, 3}} {
		if err := (&wsizeCapInst{}).RestoreState(bad); err == nil {
			t.Fatalf("bad state %v accepted", bad)
		}
	}
}

// The ZWSM instance holds timers and liveness deadlines that cannot
// move between proxies; it deliberately migrates fresh.
func TestZWSMNotSnapshottable(t *testing.T) {
	var i interface{} = &zwsmInst{}
	if _, ok := i.(filter.StateSnapshotter); ok {
		t.Fatal("zwsmInst must not be snapshottable")
	}
}

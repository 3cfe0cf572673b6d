package filters

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tcp"
)

// linearLog is the edit log as the TTSF kept it before the cumulative
// index: a base for the pruned edits and a scan over the live ones. It
// is the oracle the indexed deltaBefore, invMapAck and prune are
// checked against.
type linearLog struct {
	base  int64
	edits []edit
}

func (l *linearLog) deltaBefore(s uint32) int64 {
	d := l.base
	for i := range l.edits {
		if !tcp.SeqLE(l.edits[i].origEnd(), s) {
			break
		}
		d += l.edits[i].delta()
	}
	return d
}

func (l *linearLog) invMapAck(a uint32) uint32 {
	d := l.base
	for i := range l.edits {
		e := &l.edits[i]
		newStart := uint32(int64(e.origStart) + d)
		newEnd := newStart + uint32(len(e.newBytes))
		if tcp.SeqLT(a, newStart) {
			return uint32(int64(a) - d)
		}
		if tcp.SeqLT(a, newEnd) {
			return e.origStart
		}
		d += e.delta()
	}
	return uint32(int64(a) - d)
}

func (l *linearLog) prune(maxAckFwd uint32) {
	n := 0
	for n < len(l.edits) && tcp.SeqLE(l.edits[n].origEnd(), maxAckFwd) {
		l.base += l.edits[n].delta()
		n++
	}
	if n > 0 {
		l.edits = append(l.edits[:0], l.edits[n:]...)
	}
}

// TestTTSFIndexMatchesLinearScan runs random drop/shrink/grow/pass/ack
// scripts, whose sequence numbers start just below 2³² and cross it,
// through the indexed log and the linear oracle side by side. After
// every step the two must agree on the live edits, on the pruned base
// (what a snapshot writes), and on deltaBefore and invMapAck probed at
// every edit boundary, one either side of it, inside the edits and
// beyond both ends.
func TestTTSFIndexMatchesLinearScan(t *testing.T) {
	maxLive := 0
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		start := ^uint32(0) - uint32(rng.Intn(20000))
		idx := &ttsfInst{haveAckFwd: true, maxAckFwd: start}
		lin := &linearLog{}
		seq := start       // original-space frontier
		mobileAck := start // modified space
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a data segment: dropped, shrunk, grown or passed
				n := uint32(1 + rng.Intn(1460))
				var nb []byte
				switch rng.Intn(4) {
				case 0: // dropped
				case 1:
					nb = make([]byte, 1+rng.Intn(int(n)))
				case 2:
					nb = make([]byte, int(n)+1+rng.Intn(200))
				default:
					seq += n
					continue // passed: identity region, no edit
				}
				idx.appendEdit(seq, n, nb)
				lin.edits = append(lin.edits, edit{origStart: seq, origLen: n, newBytes: nb})
				seq += n
			default: // the mobile acks somewhere up to everything sent
				sent := uint32(int64(seq) + lin.deltaBefore(seq))
				if span := sent - mobileAck; span > 0 {
					if trial%2 == 1 && span > 1000 {
						span = 1000 // a slow mobile: the log grows to hundreds of live edits
					}
					mobileAck += uint32(rng.Int63n(int64(span) + 1))
				}
				orig := lin.invMapAck(mobileAck)
				if got := idx.invMapAck(mobileAck); got != orig {
					t.Fatalf("trial %d step %d: invMapAck(%d) = %d, oracle %d", trial, step, mobileAck, got, orig)
				}
				if tcp.SeqLT(idx.maxAckFwd, orig) {
					idx.maxAckFwd = orig
					idx.prune()
					lin.prune(orig)
				}
			}
			compareLogs(t, trial, step, idx, lin, start, seq)
		}
		if idx.head > len(idx.edits)/2 {
			t.Fatalf("trial %d: %d of %d slots dead after the last prune", trial, idx.head, len(idx.edits))
		}
		if maxLive < len(idx.live()) {
			maxLive = len(idx.live())
		}
	}
	if maxLive < 100 {
		t.Fatalf("no script left more than %d live edits: the search was never deep", maxLive)
	}
}

func compareLogs(t *testing.T, trial int64, step int, idx *ttsfInst, lin *linearLog, start, seq uint32) {
	t.Helper()
	live := idx.live()
	if len(live) != len(lin.edits) {
		t.Fatalf("trial %d step %d: %d live edits, oracle %d", trial, step, len(live), len(lin.edits))
	}
	if got := idx.before(live, 0); got != lin.base {
		t.Fatalf("trial %d step %d: pruned base %d, oracle %d", trial, step, got, lin.base)
	}
	for i := range idx.edits[:idx.head] {
		if idx.edits[i].newBytes != nil {
			t.Fatalf("trial %d step %d: pruned slot %d still holds its bytes", trial, step, i)
		}
	}
	probeOrig := []uint32{start - 1, start, seq, seq + 1}
	probeNew := []uint32{start - 1, start}
	for i := range live {
		e, o := &live[i], &lin.edits[i]
		if e.origStart != o.origStart || e.origLen != o.origLen || !bytes.Equal(e.newBytes, o.newBytes) {
			t.Fatalf("trial %d step %d: live edit %d is %+v, oracle %+v", trial, step, i, *e, *o)
		}
		probeOrig = append(probeOrig, e.origStart-1, e.origStart, e.origStart+e.origLen/2, e.origEnd(), e.origEnd()+1)
		probeNew = append(probeNew, e.newStart()-1, e.newStart(), e.newStart()+uint32(len(e.newBytes)/2), e.newEnd(), e.newEnd()+1)
	}
	probeNew = append(probeNew, uint32(int64(seq)+lin.deltaBefore(seq)))
	for _, s := range probeOrig {
		if got, want := idx.deltaBefore(s), lin.deltaBefore(s); got != want {
			t.Fatalf("trial %d step %d: deltaBefore(%d) = %d, oracle %d", trial, step, s, got, want)
		}
	}
	for _, a := range probeNew {
		if got, want := idx.invMapAck(a), lin.invMapAck(a); got != want {
			t.Fatalf("trial %d step %d: invMapAck(%d) = %d, oracle %d", trial, step, a, got, want)
		}
	}
}

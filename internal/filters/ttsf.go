package filters

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// ttsf is the TCP-Transparency-Support Filter of thesis §8.1: the
// mechanism that lets data-manipulation services (rdrop, comp,
// discard...) permanently remove, shrink, or grow TCP segment payloads
// while both endpoints continue to see a semantically consistent
// stream.
//
// It works by maintaining, per stream, the mapping between the
// original (wired sender) sequence space and the modified (wireless)
// sequence space:
//
//   - data segments heading to the mobile have their sequence numbers
//     rewritten to the modified space, after the service filters have
//     had their turn at the payload (the TTSF's out method runs at a
//     priority between the services and the tcp checksum filter);
//   - acknowledgements from the mobile have their ack numbers
//     translated back to the original space, taking the "upper
//     preimage" so that acknowledged modified data acknowledges all the
//     original bytes it stands for — including bytes a service dropped;
//   - retransmissions of already-serviced ranges are reconstructed
//     from a record of past edits, so the mobile always sees the same
//     transformation regardless of how often the sender retransmits
//     (§8.1.4's "TCP-specific issues") — the record overrides whatever
//     the services did to the retransmitted copy, a drop included;
//   - when a service drops the segment at the mobile's ack frontier,
//     the TTSF acknowledges the dropped bytes to the sender itself —
//     otherwise the sender would retransmit them forever.
//
// The key names the serviced data direction (wired sender → mobile).
type ttsf struct{}

// NewTTSF returns the TTSF factory.
func NewTTSF() filter.Factory { return &ttsf{} }

func (*ttsf) Name() string              { return "ttsf" }
func (*ttsf) Priority() filter.Priority { return PriorityTTSF }
func (*ttsf) Description() string {
	return "sequence-space remapping for transparent payload modification"
}

// TTSFStats counts remapping events for the experiment harness.
type TTSFStats struct {
	Edits             int64 // recorded transformations (drop/shrink/grow)
	BytesIn           int64 // original payload bytes entering
	BytesOut          int64 // modified payload bytes leaving
	Reconstructed     int64 // retransmissions rebuilt from the edit log
	SynthesizedAcks   int64 // ACKs injected to cover dropped frontiers
	Unreconstructable int64 // retransmissions dropped (partial overlap)
}

// ttsfInstances lists the live TTSFs by forward key, so that
// TTSFStatsFor can read a stream's stats. Instances come and go on
// whichever shard goroutine runs the stream's New and OnClose, hence
// the lock; neither is on the per-packet path.
var ttsfInstances = struct {
	sync.Mutex
	m map[filter.Key]*ttsfInst
}{m: make(map[filter.Key]*ttsfInst)}

// TTSFStatsFor returns the stats of the TTSF on key k, if any.
func TTSFStatsFor(k filter.Key) (TTSFStats, bool) {
	ttsfInstances.Lock()
	defer ttsfInstances.Unlock()
	if inst, ok := ttsfInstances.m[k]; ok {
		return inst.stats, true
	}
	return TTSFStats{}, false
}

// edit records one transformation of an original sequence range.
type edit struct {
	origStart uint32
	origLen   uint32
	newBytes  []byte // transformed payload; empty = dropped
	// before is the cumulative delta of every edit recorded before
	// this one, pruned ones included: what maps origStart into the
	// modified space, and what makes the remap a binary search.
	before int64
}

func (e *edit) origEnd() uint32  { return e.origStart + e.origLen }
func (e *edit) delta() int64     { return int64(len(e.newBytes)) - int64(e.origLen) }
func (e *edit) newStart() uint32 { return uint32(int64(e.origStart) + e.before) }
func (e *edit) newEnd() uint32   { return e.newStart() + uint32(len(e.newBytes)) }

type ttsfInst struct {
	env filter.Env
	fwd filter.Key

	started  bool   // frontier initialised
	frontier uint32 // original space: end of the processed region
	// The edit log: edits[head:] are the live edits, ascending
	// origStart; edits[:head] are pruned slots the next slide reclaims.
	// total is the cumulative delta of every edit ever recorded.
	edits []edit
	head  int
	total int64

	// In-hook snapshot of the pre-service payload of the packet
	// currently traversing the queue.
	pendingSeq   uint32
	pendingOrig  []byte
	pendingValid bool

	// Mobile's cumulative ack high-water (modified space) and the
	// highest ack forwarded/synthesized to the sender (original space).
	mobileAckNew  uint32
	haveMobileAck bool
	maxAckFwd     uint32
	haveAckFwd    bool

	// Reverse-packet template for synthesizing ACKs.
	haveTemplate bool
	tmplSeq      uint32
	tmplWindow   uint16
	tmplSrc      ip.Addr
	tmplDst      ip.Addr

	stats TTSFStats
}

func (f *ttsf) New(env filter.Env, k filter.Key, args []string) error {
	inst := &ttsfInst{env: env, fwd: k}
	detachRev, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "ttsf", Priority: PriorityTTSF,
		Out: inst.reverseOut,
	})
	if err != nil {
		return err
	}
	_, err = env.Attach(k, filter.Hooks{
		Filter: "ttsf", Priority: PriorityTTSF,
		In:  inst.forwardIn,
		Out: inst.forwardOut,
		OnClose: func() {
			ttsfInstances.Lock()
			delete(ttsfInstances.m, k)
			ttsfInstances.Unlock()
			detachRev()
		},
		State: inst,
	})
	if err != nil {
		detachRev()
		return err
	}
	ttsfInstances.Lock()
	ttsfInstances.m[k] = inst
	ttsfInstances.Unlock()
	return nil
}

// --- migration ----------------------------------------------------------------

// ttsf state snapshot flag bits.
const (
	ttsfFlagStarted = 1 << iota
	ttsfFlagMobileAck
	ttsfFlagAckFwd
	ttsfFlagTemplate
)

// SnapshotState implements filter.StateSnapshotter: it serializes the
// full sequence-remapping state — frontier, the cumulative delta of
// the pruned edits, the live edit log, both ack high-waters, the
// ACK-synthesis template, and the stats — so a peer SP can continue
// the remapping mid-stream. The per-edit cumulatives are not on the
// wire: RestoreState recomputes them. The pending in-packet snapshot
// is deliberately excluded: snapshots are taken at a batch boundary,
// where no packet is traversing the queue.
func (t *ttsfInst) SnapshotState() ([]byte, error) {
	live := t.live()
	var w filter.StateWriter
	var flags byte
	if t.started {
		flags |= ttsfFlagStarted
	}
	if t.haveMobileAck {
		flags |= ttsfFlagMobileAck
	}
	if t.haveAckFwd {
		flags |= ttsfFlagAckFwd
	}
	if t.haveTemplate {
		flags |= ttsfFlagTemplate
	}
	w.U8(flags)
	w.U32(t.frontier)
	w.I64(t.before(live, 0))
	w.U32(t.mobileAckNew)
	w.U32(t.maxAckFwd)
	w.U32(t.tmplSeq)
	w.U16(t.tmplWindow)
	w.U32(uint32(t.tmplSrc))
	w.U32(uint32(t.tmplDst))
	w.I64(t.stats.Edits)
	w.I64(t.stats.BytesIn)
	w.I64(t.stats.BytesOut)
	w.I64(t.stats.Reconstructed)
	w.I64(t.stats.SynthesizedAcks)
	w.I64(t.stats.Unreconstructable)
	w.U32(uint32(len(live)))
	for i := range live {
		e := &live[i]
		w.U32(e.origStart)
		w.U32(e.origLen)
		w.Bytes(e.newBytes)
	}
	return w.B, nil
}

// RestoreState implements filter.StateSnapshotter on a freshly
// instantiated instance at the destination proxy.
func (t *ttsfInst) RestoreState(b []byte) error {
	r := filter.StateReader{B: b}
	flags := r.U8()
	frontier := r.U32()
	base := r.I64()
	mobileAckNew := r.U32()
	maxAckFwd := r.U32()
	tmplSeq := r.U32()
	tmplWindow := r.U16()
	tmplSrc := ip.Addr(r.U32())
	tmplDst := ip.Addr(r.U32())
	stats := TTSFStats{
		Edits:             r.I64(),
		BytesIn:           r.I64(),
		BytesOut:          r.I64(),
		Reconstructed:     r.I64(),
		SynthesizedAcks:   r.I64(),
		Unreconstructable: r.I64(),
	}
	n := int(r.U32())
	var edits []edit
	for i := 0; i < n && r.Err == nil; i++ {
		edits = append(edits, edit{
			origStart: r.U32(),
			origLen:   r.U32(),
			newBytes:  r.Bytes(),
		})
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("ttsf: restore: %w", err)
	}
	t.started = flags&ttsfFlagStarted != 0
	t.haveMobileAck = flags&ttsfFlagMobileAck != 0
	t.haveAckFwd = flags&ttsfFlagAckFwd != 0
	t.haveTemplate = flags&ttsfFlagTemplate != 0
	t.frontier = frontier
	t.mobileAckNew = mobileAckNew
	t.maxAckFwd = maxAckFwd
	t.tmplSeq = tmplSeq
	t.tmplWindow = tmplWindow
	t.tmplSrc = tmplSrc
	t.tmplDst = tmplDst
	t.stats = stats
	t.edits, t.head = edits, 0
	t.reindex(base)
	t.pendingValid = false
	return nil
}

// reindex recomputes the cumulative of every edit and the total on top
// of base, the cumulative delta of the edits pruned before them.
func (t *ttsfInst) reindex(base int64) {
	for i := range t.edits {
		t.edits[i].before = base
		base += t.edits[i].delta()
	}
	t.total = base
}

var _ filter.StateSnapshotter = (*ttsfInst)(nil)

// --- mapping ------------------------------------------------------------------

// live returns the edits not yet pruned, ascending origStart.
func (t *ttsfInst) live() []edit { return t.edits[t.head:] }

// before returns the cumulative delta of every edit before live[i];
// i == len(live) stands for "after all of them".
func (t *ttsfInst) before(live []edit, i int) int64 {
	if i == len(live) {
		return t.total
	}
	return live[i].before
}

// firstEndingAfter returns the index of the first edit in live that
// ends after original position s. Live edits are disjoint, ascending
// and span far less than 2³¹ of sequence space, so "ends at or before
// s" holds for a prefix of them and a binary search finds its end.
func firstEndingAfter(live []edit, s uint32) int {
	return sort.Search(len(live), func(i int) bool { return tcp.SeqLT(s, live[i].origEnd()) })
}

// deltaBefore returns the cumulative sequence-space delta of all edits
// that end at or before original position s.
func (t *ttsfInst) deltaBefore(s uint32) int64 {
	live := t.live()
	return t.before(live, firstEndingAfter(live, s))
}

// mapOrig translates an original-space sequence number at an edit
// boundary (or in an identity region) to the modified space.
func (t *ttsfInst) mapOrig(s uint32) uint32 {
	return uint32(int64(s) + t.deltaBefore(s))
}

// invMapAck translates a cumulative ack from the modified space back
// to the original space, taking the upper preimage: an ack that covers
// a transformed range acknowledges every original byte behind it, and
// an ack sitting exactly at a dropped range acknowledges the dropped
// bytes too (a dropped range is empty in the modified space, so the
// ack is not before its end and the search passes over it).
func (t *ttsfInst) invMapAck(a uint32) uint32 {
	live := t.live()
	i := sort.Search(len(live), func(i int) bool { return tcp.SeqLT(a, live[i].newEnd()) })
	if i < len(live) && !tcp.SeqLT(a, live[i].newStart()) {
		// Partial ack of a transformed range: conservatively claim
		// nothing of the original range.
		return live[i].origStart
	}
	return uint32(int64(a) - t.before(live, i))
}

// --- forward path ---------------------------------------------------------------

// forwardIn notes the pre-service payload so forwardOut can compare it
// with the post-service payload. It keeps the slice, not a copy: the
// payload aliases Raw, which nobody may write, and the note is dead
// once forwardOut has run for the same packet.
func (t *ttsfInst) forwardIn(p *filter.Packet) {
	t.pendingValid = false
	if p.TCP == nil {
		return
	}
	if p.TCP.Flags&tcp.FlagSYN != 0 && !t.started {
		t.started = true
		t.frontier = p.TCP.Seq + 1
		return
	}
	if !t.started {
		// Attached mid-stream: the first segment seen defines the
		// frontier; everything before it passes identically.
		t.started = true
		t.frontier = p.TCP.Seq
	}
	t.pendingSeq = p.TCP.Seq
	t.pendingOrig = p.TCP.Payload
	t.pendingValid = true
}

func (t *ttsfInst) forwardOut(p *filter.Packet) {
	if p.TCP == nil || !t.started {
		return
	}
	if p.TCP.Flags&tcp.FlagSYN != 0 {
		return // handshake passes untouched
	}
	seq := p.TCP.Seq
	origLen := uint32(len(t.pendingOrig))
	if !t.pendingValid {
		origLen = uint32(len(p.TCP.Payload))
	}

	if origLen == 0 {
		// Pure ACK / FIN / window probe: remap the sequence number.
		t.rewriteSeq(p, t.mapOrig(seq))
		return
	}

	end := seq + origLen
	switch {
	case seq == t.frontier || tcp.SeqLT(t.frontier, seq):
		// New data (possibly with a gap we'll see later as a
		// retransmission): record the service filters' work.
		t.recordNew(p, seq, origLen)
	default:
		// Retransmission of serviced data.
		if t.haveAckFwd && tcp.SeqLE(end, t.maxAckFwd) {
			// The whole range is already acknowledged toward the
			// sender (its covering ack may have been lost): drop the
			// stale copy and re-assert the ack. Edits below this point
			// may have been pruned, so reconstruction is not possible
			// — nor needed.
			p.Drop()
			t.ackDroppedFrontier(true)
			return
		}
		// Rebuild it from the record.
		if tcp.SeqLT(t.frontier, end) {
			// Straddles the frontier: cut at the frontier; the tail
			// will arrive again as new data later. Only the recorded
			// prefix can be reproduced faithfully.
			end = t.frontier
			origLen = end - seq
		}
		t.reconstruct(p, seq, origLen)
	}
}

// recordNew processes a segment of not-yet-seen data after the service
// filters have modified (or dropped) it.
func (t *ttsfInst) recordNew(p *filter.Packet, seq, origLen uint32) {
	t.stats.BytesIn += int64(origLen)
	newSeq := t.mapOrig(seq)
	cur := p.TCP.Payload
	switch {
	case p.Dropped():
		t.appendEdit(seq, origLen, nil)
	case t.pendingValid && !sameBytes(cur, t.pendingOrig):
		nb := make([]byte, len(cur))
		copy(nb, cur)
		t.appendEdit(seq, origLen, nb)
		t.stats.BytesOut += int64(len(cur))
	default:
		t.stats.BytesOut += int64(origLen)
	}
	t.frontier = seq + origLen
	if !p.Dropped() {
		t.rewriteSeq(p, newSeq)
	} else {
		t.ackDroppedFrontier(false)
	}
}

// appendEdit records that the original range [seq, seq+origLen) now
// reads newBytes.
func (t *ttsfInst) appendEdit(seq, origLen uint32, newBytes []byte) {
	e := edit{origStart: seq, origLen: origLen, newBytes: newBytes, before: t.total}
	t.total += e.delta()
	t.edits = append(t.edits, e)
	t.stats.Edits++
}

// sameBytes reports whether a and b hold the same bytes; the slice a
// service never touched is recognised without reading it.
func sameBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || bytes.Equal(a, b)
}

// reconstruct rebuilds a retransmitted range from the edit log:
// identity gaps come from the packet's own (pre-service) bytes, edited
// ranges from their recorded transformations. Ranges that only
// partially overlap an edit cannot be reproduced and are dropped — the
// sender's next retransmission will align. Whatever it produces
// replaces the services' verdict on this copy, a drop included: the
// mobile must get the recorded transformation of a range however often
// the sender retransmits it (a service that drops at random would
// otherwise starve a range it once let pass).
func (t *ttsfInst) reconstruct(p *filter.Packet, seq, origLen uint32) {
	orig := t.pendingOrig
	if !t.pendingValid {
		orig = p.TCP.Payload
	}
	end := seq + origLen
	var out []byte
	cur := seq
	truncated := false
	live := t.live()
	for i := firstEndingAfter(live, seq); i < len(live); i++ {
		e := &live[i]
		if tcp.SeqLE(end, e.origStart) {
			break
		}
		if tcp.SeqLT(cur, e.origStart) {
			out = append(out, orig[cur-seq:e.origStart-seq]...)
			cur = e.origStart
		}
		if cur != e.origStart {
			// Starts inside a transformed range: unreproducible.
			t.stats.Unreconstructable++
			p.Drop()
			return
		}
		if tcp.SeqLT(end, e.origEnd()) {
			// The retransmission ends inside this edit (the sender
			// re-chunked the window differently): forward only the
			// reconstructable prefix. The covering ack for it moves
			// the sender's next chunk to the edit boundary.
			truncated = true
			break
		}
		out = append(out, e.newBytes...)
		cur = e.origEnd()
	}
	if !truncated && tcp.SeqLT(cur, end) {
		out = append(out, orig[cur-seq:end-seq]...)
	}
	t.stats.Reconstructed++
	if len(out) == 0 {
		p.Drop()
		// A fully dropped retransmission means the sender missed (or
		// never got) the covering ack; re-assert it even if we believe
		// we already sent it.
		t.ackDroppedFrontier(true)
		return
	}
	p.Undrop()
	newSeq := t.mapOrig(seq)
	if !bytes.Equal(out, p.TCP.Payload) {
		p.TCP.Payload = out
		p.MarkDirty()
	}
	t.rewriteSeq(p, newSeq)
}

func (t *ttsfInst) rewriteSeq(p *filter.Packet, newSeq uint32) {
	if p.TCP.Seq != newSeq {
		p.TCP.Seq = newSeq
		p.MarkDirty()
	}
}

// --- reverse path ---------------------------------------------------------------

// reverseOut translates mobile acknowledgements into the sender's
// sequence space and keeps the synthesis template fresh.
func (t *ttsfInst) reverseOut(p *filter.Packet) {
	if p.TCP == nil || p.TCP.Flags&tcp.FlagACK == 0 {
		return
	}
	t.haveTemplate = true
	t.tmplSeq = p.TCP.Seq
	if p.TCP.Flags&tcp.FlagSYN != 0 {
		// A SYN consumes sequence space; a synthesized ACK must use
		// the next valid sequence number or the sender discards it.
		t.tmplSeq++
	}
	t.tmplWindow = p.TCP.Window
	t.tmplSrc = p.IP.Src
	t.tmplDst = p.IP.Dst

	a := p.TCP.Ack
	if !t.haveMobileAck || tcp.SeqLT(t.mobileAckNew, a) {
		t.mobileAckNew = a
		t.haveMobileAck = true
	}
	orig := t.invMapAck(a)
	if orig != a {
		p.TCP.Ack = orig
		p.MarkDirty()
	}
	if !t.haveAckFwd || tcp.SeqLT(t.maxAckFwd, orig) {
		t.maxAckFwd = orig
		t.haveAckFwd = true
		t.prune()
	}
}

// ackDroppedFrontier injects an acknowledgement to the sender covering
// original bytes that a service dropped at the mobile's ack frontier —
// bytes the mobile will never see or ack.
func (t *ttsfInst) ackDroppedFrontier(force bool) {
	if !t.haveMobileAck || !t.haveTemplate {
		return
	}
	orig := t.invMapAck(t.mobileAckNew)
	if t.haveAckFwd && !tcp.SeqLT(t.maxAckFwd, orig) && !(force && orig == t.maxAckFwd) {
		return
	}
	t.maxAckFwd = orig
	t.haveAckFwd = true
	seg := tcp.Segment{
		SrcPort: t.fwd.DstPort, DstPort: t.fwd.SrcPort,
		Seq: t.tmplSeq, Ack: orig,
		Flags: tcp.FlagACK, Window: t.tmplWindow,
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: t.tmplSrc, Dst: t.tmplDst}
	raw, err := h.Marshal(seg.Marshal(t.tmplSrc, t.tmplDst))
	if err != nil {
		t.env.Emit("ttsf", "synth-ack-failed", t.fwd, obs.F("err", err.Error()))
		return
	}
	t.stats.SynthesizedAcks++
	t.env.Inject(raw)
	t.prune()
}

// prune discards edits wholly below the sender's acknowledged
// frontier; the sender will never retransmit them. It advances head
// over them, releasing their bytes, and slides the live edits down to
// the front of the backing array once more than half of it is dead —
// each slide moves fewer edits than were pruned since the last one, so
// pruning is O(1) amortised and the array is reused, not reallocated.
func (t *ttsfInst) prune() {
	if !t.haveAckFwd {
		return
	}
	for t.head < len(t.edits) && tcp.SeqLE(t.edits[t.head].origEnd(), t.maxAckFwd) {
		t.edits[t.head].newBytes = nil
		t.head++
	}
	if t.head > len(t.edits)/2 {
		n := copy(t.edits, t.edits[t.head:])
		clear(t.edits[n:]) // the moved edits' old slots still hold their bytes
		t.edits, t.head = t.edits[:n], 0
	}
}

// Package flowlog is the flow-log analytics plane: a per-shard,
// allocation-free accumulator of per-flow L4 records in the style of
// deepflow's l4_flow_log schema. Every TCP segment the proxy
// intercepts is folded into the record of its flow — per-direction
// packet/byte/payload counts, SYN and SYN-ACK counts, retransmissions
// (sequence-regression detection), zero-window events, and a smoothed
// RTT estimate from SYN→SYN-ACK and data→ACK timing. Flows transition
// active→closed on FIN/RST/idle and age into a bounded ring of
// closed-flow records; fleet aggregates (retransmission ratio,
// zero-window rate, mean RTT) feed the EEM so policy rules can fire on
// traffic conditions, not just link metrics.
//
// Each active flow also carries one Tag per direction that the table's
// owner keeps its own per-stream answer in: Record returns the
// segment's tag, zeroed when the flow opened, and the table never
// reads it. The proxy stamps there which filter queue the stream
// uses, or that no registration matches it, so a known flow's later
// packets skip the queue table and the registry classifier. A tag
// lives exactly as long as its flow: a closed, evicted or expired flow
// that reopens starts from a zero tag.
//
// Concurrency contract: a table belongs to one goroutine (the proxy's
// interception path; on the concurrent plane, the shard goroutine,
// which other goroutines reach only through the plane's quiesce
// barrier). Every method, the counter reads Stats and Snapshot too,
// runs there; the counters are plain integers, which the plane sums
// across shards.
package flowlog

import (
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Defaults for Config's zero values and the "flows" command.
const (
	// DefaultMaxActive bounds the active-flow table; at capacity the
	// least-recently-seen flow is evicted into the closed ring, so a
	// SYN storm (workload.Churn without FINs) can never grow the table
	// past the bound.
	DefaultMaxActive = 4096
	// DefaultClosedRing bounds the closed-flow record ring (oldest
	// records are overwritten).
	DefaultClosedRing = 256
	// DefaultIdleTimeout closes a flow that has carried no segment for
	// this long (lazy aging: expiry is checked against the LRU head on
	// each Record call and before each Snapshot or AppendRecords, so no
	// timer fires on the hot path and the table ages when nobody sends).
	DefaultIdleTimeout = 60 * time.Second
	// DefaultShow is the "flows [n]" display bound when n is omitted.
	DefaultShow = 20
)

// Config shapes a Table. Zero values select the defaults above.
type Config struct {
	MaxActive   int
	ClosedRing  int
	IdleTimeout time.Duration
}

// DirCounts accumulates one direction of a flow.
type DirCounts struct {
	Pkts    int64
	Bytes   int64 // raw datagram bytes
	Payload int64 // TCP payload bytes
	Syn     int64
	SynAck  int64
	Retrans int64
	ZeroWin int64
}

// Flow states of a Record.
const (
	StateActive = "active"
	StateClosed = "closed" // both FINs seen
	StateReset  = "reset"  // RST
	StateIdle   = "idle"   // idle timeout
	StateEvict  = "evict"  // displaced by a newer flow at MaxActive
)

// Direction-score constants (deepflow convention: >=128 means the
// client/server orientation is usable, 255 means certain).
const (
	ScoreGuessed   = 128 // oriented by the flow's first observed segment
	ScoreHandshake = 255 // oriented by an observed SYN or SYN-ACK
)

// Tag is one direction of a flow's owner-kept slot: a value and the
// generation the owner stamped it with. The table zeroes it when the
// flow opens and never reads it; what the fields mean is the owner's
// business.
type Tag struct {
	Val any
	Gen uint64
}

// Record is one flow's accumulated state, oriented so Init is the
// connection initiator's direction (per Score's confidence).
type Record struct {
	Key        filter.Key // initiator → responder
	State      string
	Score      uint8
	Init, Resp DirCounts
	SRTTMicros int64 // smoothed RTT estimate; 0 = no sample
	Opened     sim.Time
	Last       sim.Time
}

// flowState is the live accumulator of one active flow, keyed and
// direction-indexed canonically (smaller 48-bit endpoint first — the
// same normalization as the data plane's steering hash, so a flow is
// always whole on one shard). It is free-listed: steady-state churn
// recycles states instead of allocating.
type flowState struct {
	key  filter.Key // canonical orientation
	dir  [2]DirCounts
	prev *flowState // intrusive LRU list, head = least recently seen
	next *flowState

	opened sim.Time
	last   sim.Time

	// Sequence-regression retransmission detection: the highest
	// sequence end seen per direction.
	maxSeqEnd [2]uint32
	haveSeq   [2]bool

	// RTT sampling state: handshake (SYN→SYN-ACK) and data→ACK, with
	// Karn's rule (a retransmitted segment never yields a sample).
	synTime     sim.Time
	synDir      int8
	awaitSynAck bool
	hsDone      bool
	pendSeq     [2]uint32
	pendTime    [2]sim.Time
	pendSet     [2]bool
	srtt        int64 // microseconds

	finSeen [2]bool
	initDir int8 // 0 or 1 (canonical index of the initiator)
	score   uint8

	tag [2]Tag // the owner's slot per canonical direction
}

// Table is one shard's flow accumulator.
type Table struct {
	cfg Config
	now func() sim.Time

	active   filter.KeyMap[*flowState]
	lruHead  *flowState
	lruTail  *flowState
	freeList *flowState

	closed     []Record // ring of closed-flow records
	closedNext int
	closedLen  int

	stats Stats
}

// New builds a Table reading virtual time through now.
func New(now func() sim.Time, cfg Config) *Table {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.ClosedRing <= 0 {
		cfg.ClosedRing = DefaultClosedRing
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	return &Table{
		cfg:    cfg,
		now:    now,
		closed: make([]Record, cfg.ClosedRing),
	}
}

// canonical reduces k to the flow's canonical orientation, mirroring
// dataplane.Hash's smaller-48-bit-endpoint-first ordering. dir is the
// canonical index of the segment's direction: 0 when k already is
// canonical, 1 when the segment travels the reverse way.
func canonical(k filter.Key) (ck filter.Key, dir int) {
	a := uint64(k.SrcIP)<<16 | uint64(k.SrcPort)
	b := uint64(k.DstIP)<<16 | uint64(k.DstPort)
	if a > b {
		return k.Reverse(), 1
	}
	return k, 0
}

// Record folds one TCP segment into its flow and returns the tag of
// the segment's direction of that flow (of exact key k, that is). k is
// the packet's parse key (source endpoint first); seg's fields are
// copied, never retained, since seg lives in the proxy's reused packet
// view. Steady state (existing flow) is allocation-free.
//
// The tag is nil when the segment has no flow record: a segment that
// consumes no sequence space opens none, and a RST or second FIN
// closes the record it was folded into. Otherwise it is the open
// record's, zero if this segment opened it, and valid until the next
// call that can close a flow (Record, Snapshot, AppendRecords).
func (t *Table) Record(k filter.Key, seg *tcp.Segment, rawLen int) *Tag {
	now := t.now()
	t.stats.Pkts++
	t.expireIdle(now, 2)

	ck, d := canonical(k)
	var f *flowState
	if seg.SeqLen() == 0 {
		// Only segments that consume sequence space (SYN, FIN, or
		// payload) open a flow: the trailing pure ACK of a teardown —
		// arriving after the second FIN closed the record — must not
		// resurrect the flow as a one-packet ghost.
		if f, _ = t.active.Get(ck); f == nil {
			return nil
		}
	} else if slot, found := t.active.Insert(ck); found {
		f = *slot
	} else {
		f = t.open(slot, ck, d, now)
	}
	f.last = now
	t.lruMoveBack(f)

	dc := &f.dir[d]
	plen := len(seg.Payload)
	dc.Pkts++
	dc.Bytes += int64(rawLen)
	dc.Payload += int64(plen)
	if plen > 0 {
		t.stats.DataPkts++
	}

	retrans := false
	if slen := seg.SeqLen(); slen > 0 {
		end := seg.Seq + slen
		if f.haveSeq[d] && tcp.SeqLE(end, f.maxSeqEnd[d]) {
			// The segment's whole range is at or below the frontier:
			// a retransmission. (A partial overlap advances the
			// frontier and counts as new data.)
			retrans = true
			dc.Retrans++
			t.stats.Retrans++
			f.pendSet[d] = false // Karn: the pending sample is ambiguous now
		} else {
			if !f.haveSeq[d] || tcp.SeqLT(f.maxSeqEnd[d], end) {
				f.maxSeqEnd[d] = end
				f.haveSeq[d] = true
			}
			if plen > 0 && !f.pendSet[d] {
				f.pendSet[d] = true
				f.pendSeq[d] = end
				f.pendTime[d] = now
			}
		}
	}

	switch {
	case seg.Flags&tcp.FlagSYN != 0 && seg.Flags&tcp.FlagACK == 0:
		dc.Syn++
		f.initDir, f.score = int8(d), ScoreHandshake
		if !f.hsDone && !retrans {
			f.synTime, f.synDir, f.awaitSynAck = now, int8(d), true
		}
		if retrans {
			f.awaitSynAck = false // Karn, handshake edition
		}
	case seg.Flags&(tcp.FlagSYN|tcp.FlagACK) == tcp.FlagSYN|tcp.FlagACK:
		dc.SynAck++
		f.initDir, f.score = int8(1-d), ScoreHandshake
		if f.awaitSynAck && int8(d) != f.synDir && !f.hsDone {
			t.sample(f, now.Sub(f.synTime))
			f.hsDone, f.awaitSynAck = true, false
		}
	}

	if seg.Flags&tcp.FlagACK != 0 {
		o := 1 - d
		if f.pendSet[o] && tcp.SeqLE(f.pendSeq[o], seg.Ack) {
			t.sample(f, now.Sub(f.pendTime[o]))
			f.pendSet[o] = false
		}
	}

	if seg.Window == 0 && seg.Flags&tcp.FlagRST == 0 {
		dc.ZeroWin++
		t.stats.ZeroWin++
	}

	switch {
	case seg.Flags&tcp.FlagRST != 0:
		t.close(f, StateReset)
		return nil
	case seg.Flags&tcp.FlagFIN != 0:
		f.finSeen[d] = true
		if f.finSeen[0] && f.finSeen[1] {
			t.close(f, StateClosed)
			return nil
		}
	}
	return &f.tag[d]
}

// sample folds one RTT measurement into the flow's smoothed estimate
// (the classic srtt += (sample - srtt)/8) and the table aggregates.
func (t *Table) sample(f *flowState, d time.Duration) {
	us := int64(d / time.Microsecond)
	if us < 1 {
		us = 1 // keep "have a sample" distinct from "no sample"
	}
	if f.srtt == 0 {
		f.srtt = us
	} else {
		f.srtt += (us - f.srtt) / 8
	}
	t.stats.RTTSamples++
	t.stats.RTTSumMicros += us
}

// expireIdle lazily closes flows whose last segment predates the idle
// timeout, at most limit of them (all when limit < 0). Record expires
// two, bounding the per-packet cost while still draining any backlog
// over a handful of packets; the accessors expire all, so what they
// show does not depend on whether traffic is still passing.
func (t *Table) expireIdle(now sim.Time, limit int) {
	for ; limit != 0; limit-- {
		h := t.lruHead
		if h == nil || now.Sub(h.last) < t.cfg.IdleTimeout {
			return
		}
		t.close(h, StateIdle)
	}
}

// open admits a new flow into the slot Insert has just made for it,
// then evicts the least-recently-seen flow if that put the table over
// capacity.
func (t *Table) open(slot **flowState, ck filter.Key, d int, now sim.Time) *flowState {
	f := t.freeList
	if f != nil {
		t.freeList = f.next
		*f = flowState{}
	} else {
		f = &flowState{}
	}
	f.key = ck
	f.opened, f.last = now, now
	f.initDir, f.score = int8(d), ScoreGuessed
	*slot = f
	t.lruPushBack(f)
	if t.active.Len() > t.cfg.MaxActive {
		t.close(t.lruHead, StateEvict)
	}
	t.stats.Opened++
	t.stats.Active++
	return f
}

// close finalizes f into the closed ring under the given state and
// recycles its accumulator.
func (t *Table) close(f *flowState, state string) {
	rec := f.record(state)
	t.closed[t.closedNext] = rec
	t.closedNext = (t.closedNext + 1) % len(t.closed)
	if t.closedLen < len(t.closed) {
		t.closedLen++
	}
	t.active.Delete(f.key)
	t.lruRemove(f)
	f.next = t.freeList
	t.freeList = f
	t.stats.Active--
	t.stats.Closed++
	switch state {
	case StateEvict:
		t.stats.Evicted++
	case StateIdle:
		t.stats.IdleClosed++
	}
}

// record renders f as a Record oriented by the initiator direction.
func (f *flowState) record(state string) Record {
	r := Record{
		Key:        f.key,
		State:      state,
		Score:      f.score,
		Init:       f.dir[0],
		Resp:       f.dir[1],
		SRTTMicros: f.srtt,
		Opened:     f.opened,
		Last:       f.last,
	}
	if f.initDir == 1 {
		r.Key = f.key.Reverse()
		r.Init, r.Resp = f.dir[1], f.dir[0]
	}
	return r
}

// AppendRecords closes the flows idle past the timeout, then appends
// every active flow (as StateActive records) and every retained closed
// record to dst and returns it. Owning-goroutine only; the data plane
// gathers per-shard slices under its quiesce barrier and merges them —
// a flow is always whole on one shard, so concatenation is the whole
// merge.
func (t *Table) AppendRecords(dst []Record) []Record {
	t.expireIdle(t.now(), -1)
	for f := t.lruHead; f != nil; f = f.next {
		dst = append(dst, f.record(StateActive))
	}
	start := t.closedNext - t.closedLen
	for i := 0; i < t.closedLen; i++ {
		dst = append(dst, t.closed[(start+i+len(t.closed))%len(t.closed)])
	}
	return dst
}

// Snapshot closes the flows idle past the timeout, then copies the
// counters. Owning-goroutine only.
func (t *Table) Snapshot() Stats {
	t.expireIdle(t.now(), -1)
	return t.stats
}

// SRTT returns the smoothed RTT estimate of k's active flow (either
// orientation; the table canonicalizes). ok is false when the flow is
// unknown or has produced no RTT sample yet. Owning-goroutine only,
// like Record — this is the lookup behind the proxy's
// filter.Env.FlowSRTT.
func (t *Table) SRTT(k filter.Key) (time.Duration, bool) {
	ck, _ := canonical(k)
	f, _ := t.active.Get(ck)
	if f == nil || f.srtt == 0 {
		return 0, false
	}
	return time.Duration(f.srtt) * time.Microsecond, true
}

// --- intrusive LRU -----------------------------------------------------------

func (t *Table) lruPushBack(f *flowState) {
	f.prev, f.next = t.lruTail, nil
	if t.lruTail != nil {
		t.lruTail.next = f
	} else {
		t.lruHead = f
	}
	t.lruTail = f
}

func (t *Table) lruRemove(f *flowState) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		t.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		t.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (t *Table) lruMoveBack(f *flowState) {
	if t.lruTail == f {
		return
	}
	t.lruRemove(f)
	t.lruPushBack(f)
}

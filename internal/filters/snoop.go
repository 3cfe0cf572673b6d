package filters

import (
	"bytes"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// snoop implements the TCP-aware link-layer protocol of thesis §8.2.1
// (Balakrishnan et al.): the proxy caches data segments heading to the
// mobile, retransmits them locally when the wireless link loses them,
// and suppresses the duplicate acknowledgements that would otherwise
// trick the wired sender into congestion avoidance. The wired sender
// never learns the wireless link dropped anything, so its congestion
// window keeps tracking the wired path only.
//
// The key names the data direction (wired sender → mobile).
type snoop struct{}

// NewSnoop returns the snoop filter factory.
func NewSnoop() filter.Factory { return &snoop{} }

func (*snoop) Name() string              { return "snoop" }
func (*snoop) Priority() filter.Priority { return filter.Normal }
func (*snoop) Description() string {
	return "TCP-aware wireless caching: local retransmission and dup-ACK suppression"
}

type cachedSeg struct {
	raw     []byte // full IP datagram as last forwarded
	seq     uint32
	length  uint32
	sentAt  sim.Time
	rexmits int
}

type snoopInst struct {
	env filter.Env
	fwd filter.Key

	cache   []*cachedSeg // sorted by seq
	lastAck uint32
	haveAck bool
	dupAcks int

	// Wireless RTT estimate for the local retransmission timer.
	srtt         time.Duration
	timer        sim.Timer
	timerBackoff uint // consecutive timer firings without progress
	closed       bool
}

// Snoop straddles the TTSF boundary: it must see data segments in the
// wireless-side (post-TTSF) sequence space, so its forward out method
// runs above PriorityTTSF, while its reverse out method runs below so
// it reads the mobile's ACKs before the TTSF translates them back to
// the sender's space.
const (
	prioritySnoopFwd = PriorityTTSF + 5
	prioritySnoopRev = PriorityTTSF - 5
)

func (f *snoop) New(env filter.Env, k filter.Key, args []string) error {
	inst := &snoopInst{env: env, fwd: k, srtt: 50 * time.Millisecond}
	detachRev, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "snoop", Priority: prioritySnoopRev,
		Out: inst.ackFromMobile, // Out so it can suppress (drop) dup ACKs
	})
	if err != nil {
		return err
	}
	_, err = env.Attach(k, filter.Hooks{
		Filter: "snoop", Priority: prioritySnoopFwd,
		Out: inst.dataToMobile, // Out so it sees the final payload bytes
		OnClose: func() {
			inst.closed = true
			inst.timer.Stop()
			detachRev()
		},
	})
	if err != nil {
		detachRev()
	}
	return err
}

// dataToMobile caches data segments on their way to the wireless link.
func (inst *snoopInst) dataToMobile(p *filter.Packet) {
	if p.TCP == nil || p.Dropped() || len(p.TCP.Payload) == 0 {
		return
	}
	seq := p.TCP.Seq
	if inst.haveAck && tcp.SeqLE(seq+uint32(len(p.TCP.Payload)), inst.lastAck) {
		return // entirely old data, mobile already has it
	}
	// Snapshot the packet as it will appear on the wireless link,
	// including any modifications made earlier in the out queue.
	raw, err := p.Encode()
	if err != nil {
		return
	}
	now := inst.env.Clock().Now()
	// Replace an existing cache entry (sender retransmission) or
	// insert sorted.
	for _, c := range inst.cache {
		if c.seq == seq {
			// Sender retransmission refreshes the entry and gives the
			// local repair a fresh budget.
			c.raw = raw
			c.sentAt = now
			c.length = uint32(len(p.TCP.Payload))
			c.rexmits = 0
			inst.armTimer()
			return
		}
	}
	i := 0
	for i < len(inst.cache) && tcp.SeqLT(inst.cache[i].seq, seq) {
		i++
	}
	inst.cache = append(inst.cache, nil)
	copy(inst.cache[i+1:], inst.cache[i:])
	inst.cache[i] = &cachedSeg{raw: raw, seq: seq, length: uint32(len(p.TCP.Payload)), sentAt: now}
	inst.armTimer()
}

// ackFromMobile processes acknowledgements arriving from the wireless
// side: new ACKs clean the cache and update the RTT estimate;
// duplicate ACKs trigger a local retransmission and are suppressed.
func (inst *snoopInst) ackFromMobile(p *filter.Packet) {
	if p.TCP == nil || p.TCP.Flags&tcp.FlagACK == 0 {
		return
	}
	ack := p.TCP.Ack
	if !inst.haveAck || tcp.SeqLT(inst.lastAck, ack) {
		// New ACK: sample RTT from the oldest segment it covers, then
		// evict covered segments.
		for len(inst.cache) > 0 && tcp.SeqLE(inst.cache[0].seq+inst.cache[0].length, ack) {
			c := inst.cache[0]
			if c.rexmits == 0 { // Karn, locally
				m := inst.env.Clock().Now().Sub(c.sentAt)
				if m > 2*time.Second {
					m = 2 * time.Second // don't let stalls poison the estimate
				}
				inst.srtt = (3*inst.srtt + m) / 4
			}
			inst.cache = inst.cache[1:]
		}
		inst.lastAck = ack
		inst.haveAck = true
		inst.dupAcks = 0
		inst.timerBackoff = 0
		inst.armTimer()
		return
	}
	if ack == inst.lastAck && len(p.TCP.Payload) == 0 {
		// Duplicate ACK: the mobile is missing the segment at `ack`.
		inst.dupAcks++
		if c := inst.lookup(ack); c != nil {
			// Retransmit at most once per half-RTT per hole: the first
			// dup ack triggers immediately, later ones only after the
			// previous repair attempt has had time to land.
			age := inst.env.Clock().Now().Sub(c.sentAt)
			if inst.dupAcks == 1 || age > inst.srtt/2 {
				inst.retransmit(c)
			}
			p.Drop()        // the wired sender never sees the duplicate
			inst.armTimer() // backstop relative to this repair attempt
		}
	}
}

func (inst *snoopInst) lookup(seq uint32) *cachedSeg {
	for _, c := range inst.cache {
		if c.seq == seq {
			return c
		}
	}
	return nil
}

// retransmit injects a copy of the cached segment: the cache keeps
// c.raw for further repairs, and an injected buffer is the network's.
func (inst *snoopInst) retransmit(c *cachedSeg) {
	c.rexmits++
	c.sentAt = inst.env.Clock().Now()
	inst.env.Inject(bytes.Clone(c.raw))
}

// armTimer schedules the local retransmission timeout for the oldest
// cached segment, backing off exponentially while firings make no
// progress (the mobile may be disconnected).
func (inst *snoopInst) armTimer() {
	inst.timer.Stop()
	if inst.closed || len(inst.cache) == 0 {
		return
	}
	rto := 2 * inst.srtt
	if rto < 20*time.Millisecond {
		rto = 20 * time.Millisecond
	}
	if rto > 500*time.Millisecond {
		rto = 500 * time.Millisecond
	}
	shift := inst.timerBackoff
	if shift > 5 {
		shift = 5
	}
	inst.timer = inst.env.Clock().After(rto<<shift, inst.onTimeout)
}

func (inst *snoopInst) onTimeout() {
	if inst.closed || len(inst.cache) == 0 {
		return
	}
	inst.retransmit(inst.cache[0])
	inst.timerBackoff++
	inst.armTimer()
}

package workload

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/tcp"
)

// ChurnConfig shapes a registry-churn storm: a stream of short-lived
// flows, each on a fresh stream key, carrying a SYN handshake, a few
// data segments, and a FIN in each direction. Driven at the proxy it
// is the worst case for registry matching — every flow is first-sight
// (one classifier lookup and, when a registration matches, one filter
// queue build) and every teardown is a queue removal. The old
// negative-match cache degraded exactly here: each miss inserted a
// cache entry and every 2^16 distinct keys the whole cache was
// discarded, re-exposing the linear registry scan.
type ChurnConfig struct {
	// DataPkts is the number of data segments per flow (default 2).
	DataPkts int
	// PayloadSize is the bytes per data segment (default 256).
	PayloadSize int
}

// Every churn flow runs from the testbed's wired host to port 5001 on
// its mobile host.
var (
	churnSrc = ip.AddrFrom4(11, 11, 10, 99)
	churnDst = ip.AddrFrom4(11, 11, 10, 10)
)

const churnPort = 5001

// ChurnStats totals what a Drive run emitted.
type ChurnStats struct {
	Flows   int
	Packets int
	Bytes   int64
}

// Churn generates the flow storm. Each flow claims a fresh key: source
// ports cycle through 1024..65534 and the source address is bumped on
// every wrap, so key reuse never occurs within ~4 billion flows.
type Churn struct {
	cfg     ChurnConfig
	flow    int
	payload []byte
}

// NewChurn builds a generator, applying ChurnConfig defaults.
func NewChurn(cfg ChurnConfig) *Churn {
	if cfg.DataPkts == 0 {
		cfg.DataPkts = 2
	}
	if cfg.PayloadSize == 0 {
		cfg.PayloadSize = 256
	}
	payload := make([]byte, cfg.PayloadSize)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	return &Churn{cfg: cfg, payload: payload}
}

// PacketsPerFlow returns how many datagrams NextFlow emits: SYN,
// SYN-ACK, handshake ACK, the data segments, and one FIN-ACK per
// direction.
func (c *Churn) PacketsPerFlow() int { return 5 + c.cfg.DataPkts }

// Flows returns how many flows have been generated so far.
func (c *Churn) Flows() int { return c.flow }

// NextFlow returns the raw datagrams of the next short flow, in wire
// order. Every call allocates fresh buffers, so the slices stay valid
// after later calls — safe to hand to a concurrent plane's Dispatch,
// which requires buffer stability until the batch drains.
func (c *Churn) NextFlow() [][]byte {
	srcPort := uint16(1024 + c.flow%64511)
	srcIP := churnSrc + ip.Addr(c.flow/64511)
	c.flow++

	out := make([][]byte, 0, c.PacketsPerFlow())
	seq, ack := uint32(1000), uint32(501000)
	// Handshake.
	out = append(out,
		c.seg(srcIP, srcPort, true, tcp.Segment{
			SrcPort: srcPort, DstPort: churnPort,
			Seq: seq, Flags: tcp.FlagSYN, Window: 65535}),
		c.seg(srcIP, srcPort, false, tcp.Segment{
			SrcPort: churnPort, DstPort: srcPort,
			Seq: ack, Ack: seq + 1, Flags: tcp.FlagSYN | tcp.FlagACK, Window: 65535}),
		c.seg(srcIP, srcPort, true, tcp.Segment{
			SrcPort: srcPort, DstPort: churnPort,
			Seq: seq + 1, Ack: ack + 1, Flags: tcp.FlagACK, Window: 65535}))
	seq++
	ack++
	// Data.
	for i := 0; i < c.cfg.DataPkts; i++ {
		out = append(out, c.seg(srcIP, srcPort, true, tcp.Segment{
			SrcPort: srcPort, DstPort: churnPort,
			Seq: seq, Ack: ack, Flags: tcp.FlagACK, Window: 65535,
			Payload: c.payload}))
		seq += uint32(len(c.payload))
	}
	// Teardown: FIN in both directions (what the tcp bookkeeping
	// filter watches for before scheduling queue removal).
	out = append(out,
		c.seg(srcIP, srcPort, true, tcp.Segment{
			SrcPort: srcPort, DstPort: churnPort,
			Seq: seq, Ack: ack, Flags: tcp.FlagFIN | tcp.FlagACK, Window: 65535}),
		c.seg(srcIP, srcPort, false, tcp.Segment{
			SrcPort: churnPort, DstPort: srcPort,
			Seq: ack, Ack: seq + 1, Flags: tcp.FlagFIN | tcp.FlagACK, Window: 65535}))
	return out
}

// seg marshals one TCP segment into an IP datagram, forward
// (client→server) or reverse.
func (c *Churn) seg(srcIP ip.Addr, _ uint16, forward bool, s tcp.Segment) []byte {
	src, dst := srcIP, churnDst
	if !forward {
		src, dst = dst, src
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(s.Marshal(src, dst))
	if err != nil {
		// Impossible for the fixed segment shapes above; a failure here
		// is generator corruption, not an I/O condition.
		panic(fmt.Sprintf("workload: churn marshal: %v", err))
	}
	return raw
}

// Drive emits `flows` complete flows into emit and totals them.
func (c *Churn) Drive(flows int, emit func([]byte)) ChurnStats {
	var st ChurnStats
	for i := 0; i < flows; i++ {
		for _, raw := range c.NextFlow() {
			emit(raw)
			st.Packets++
			st.Bytes += int64(len(raw))
		}
		st.Flows++
	}
	return st
}

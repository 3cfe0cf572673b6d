package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// Wire offsets inside a generated datagram (20-byte IP header, 20-byte
// TCP header, no options on either).
const (
	hdrLen     = 40
	offSrcPort = 20
	offDstPort = 22
	offSeq     = 24
	offAck     = 28
	offTCPSum  = 36
	offMarker  = hdrLen // first four payload bytes: 0, or sample id + 1

	serverPort = 5001
	portBase   = 2000 // flow f sends from portBase+f
)

var (
	wiredAddr   = ip.MustParseAddr("11.11.10.99")
	mobileAddr  = ip.MustParseAddr("11.11.10.10") // serviced destination
	mobileBAddr = ip.MustParseAddr("11.11.10.11") // destination no rule matches
)

// pattern is the payload every data segment carries (after the marker).
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/253)
	}
	return b
}

// shrunk reports whether the shrink service halves the data segment
// that starts at original sequence number seq. Generator, service and
// verifying sink all decide from the sequence number alone, so a
// retransmission would be treated like its first copy.
func shrunk(seq uint32, payload int) bool { return (seq/uint32(payload))&1 == 1 }

// trafficSpec describes a set of long-lived bidirectional flows. Flow f
// runs wired:portBase+f -> dst(f):serverPort. The schedule interleaves
// the flows round-robin, one packet per flow per round; every flow
// sends ackEvery data segments and then one reverse pure ACK.
type trafficSpec struct {
	flows    int
	payload  int // bytes per data segment
	ackEvery int // data segments per reverse ACK; 0 = no ACKs at all
	// ackLag is how many segments the ACK trails the data by. With
	// edits the ACK is in the modified sequence space the mobile would
	// see, so a TTSF holds about ackLag/2 live edits.
	ackLag int
	edits  bool // the shrink service rewrites every other segment
	// unserviced is how many of the flows (the last ones) go to
	// mobileBAddr, which no registration matches.
	unserviced int
}

func (s trafficSpec) dst(f int) ip.Addr {
	if f >= s.flows-s.unserviced {
		return mobileBAddr
	}
	return mobileAddr
}

func (s trafficSpec) key(f int) filter.Key {
	return filter.Key{SrcIP: wiredAddr, SrcPort: uint16(portBase + f), DstIP: s.dst(f), DstPort: serverPort}
}

// period is the schedule length in packets.
func (s trafficSpec) period() int { return s.flows * (s.ackEvery + 1) }

type genFlow struct {
	isn     uint32 // first data byte, original space
	seq     uint32 // next data byte, original space
	mod     uint32 // next data byte, modified space
	revSeq  uint32
	sent    int      // data segments generated
	modEnds []uint32 // modified-space end of the last ackLag segments
	ackNext uint32   // what the next reverse ACK acknowledges
}

// generator hands out the packets of a trafficSpec one at a time. The
// datagrams live in a fixed pool of pre-marshalled buffers, one per
// schedule position, patched in place on every reuse (sequence or ack
// number, sample marker, RFC 1624 incremental checksum): the plane
// requires a dispatched buffer to stay untouched until it is
// delivered, so the pool must be larger than the plane's in-flight
// capacity, and TTSF and the flow log need sequence numbers that
// advance.
type generator struct {
	spec  trafficSpec
	flows []genFlow
	pool  [][]byte
	t     int // packets generated
	data  int // data segments generated
	// sampleEvery marks every n-th data segment with a sample id.
	sampleEvery int
	samples     int
}

// newGenerator builds the flows from seed and a pool of at least
// minPool buffers (rounded up to whole schedule periods).
func newGenerator(spec trafficSpec, seed int64, minPool int) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{spec: spec, sampleEvery: 8}
	g.flows = make([]genFlow, spec.flows)
	for f := range g.flows {
		// ISNs leave headroom below 2^32 so no flow wraps within a
		// run; TestPatchAcrossWrap covers the wrap itself.
		isn := 1<<16 + rng.Uint32()%(1<<30)
		fl := &g.flows[f]
		fl.isn, fl.seq, fl.mod, fl.ackNext = isn, isn, isn, isn
		fl.revSeq = 1<<16 + rng.Uint32()%(1<<30)
		if spec.ackLag > 0 {
			fl.modEnds = make([]uint32, spec.ackLag)
		}
	}
	p := spec.period()
	n := (minPool + p - 1) / p * p
	size := 0
	for i := 0; i < n; i++ {
		if _, isData := g.slot(i); isData {
			size += spec.payload
		}
		size += hdrLen
	}
	arena := make([]byte, size)
	g.pool = make([][]byte, n)
	pay := pattern(spec.payload)
	for i := range g.pool {
		f, isData := g.slot(i)
		var raw []byte
		if isData {
			raw = marshal(wiredAddr, spec.dst(f), tcp.Segment{
				SrcPort: uint16(portBase + f), DstPort: serverPort,
				Ack: g.flows[f].revSeq, Flags: tcp.FlagACK, Window: 65535, Payload: pay})
			binary.BigEndian.PutUint32(raw[offMarker:], 0)
			fixTCPChecksum(raw)
		} else {
			raw = marshal(spec.dst(f), wiredAddr, tcp.Segment{
				SrcPort: serverPort, DstPort: uint16(portBase + f),
				Seq: g.flows[f].revSeq, Flags: tcp.FlagACK, Window: 65535})
		}
		g.pool[i] = arena[:len(raw):len(raw)]
		copy(g.pool[i], raw)
		arena = arena[len(raw):]
	}
	return g
}

// slot maps schedule position i to its flow and packet kind.
func (g *generator) slot(i int) (flow int, isData bool) {
	a := g.spec.ackEvery
	return i % g.spec.flows, a == 0 || (i/g.spec.flows)%(a+1) < a
}

// next returns the next datagram of the schedule. sample is the id the
// segment carries (0 when it carries none).
func (g *generator) next() (raw []byte, sample uint32) {
	i := g.t % len(g.pool)
	g.t++
	f, isData := g.slot(i)
	raw = g.pool[i]
	fl := &g.flows[f]
	if !isData {
		patch32(raw, offAck, fl.ackNext)
		return raw, 0
	}
	patch32(raw, offSeq, fl.seq)
	if g.data%g.sampleEvery == 0 {
		g.samples++
		sample = uint32(g.samples)
	}
	g.data++
	patch32(raw, offMarker, sample)
	n := uint32(g.spec.payload)
	modLen := n
	if g.spec.edits && shrunk(fl.seq, g.spec.payload) {
		modLen = n / 2
	}
	fl.seq += n
	fl.mod += modLen
	if g.spec.ackLag == 0 {
		fl.ackNext = fl.mod
	} else {
		j := fl.sent % g.spec.ackLag
		if fl.sent >= g.spec.ackLag {
			fl.ackNext = fl.modEnds[j]
		}
		fl.modEnds[j] = fl.mod
	}
	fl.sent++
	return raw, sample
}

// marshal builds one IP datagram around seg.
func marshal(src, dst ip.Addr, seg tcp.Segment) []byte {
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		panic(fmt.Sprintf("bench: marshal: %v", err)) // fixed shapes: a bug, not input
	}
	return raw
}

// fixTCPChecksum recomputes the TCP checksum of raw in full.
func fixTCPChecksum(raw []byte) {
	raw[offTCPSum], raw[offTCPSum+1] = 0, 0
	src := ip.Addr(binary.BigEndian.Uint32(raw[12:]))
	dst := ip.Addr(binary.BigEndian.Uint32(raw[16:]))
	binary.BigEndian.PutUint16(raw[offTCPSum:], ip.PseudoHeaderChecksum(src, dst, ip.ProtoTCP, raw[20:]))
}

// patch32 overwrites the 32-bit field at off (16-bit aligned within
// the TCP segment) and updates the TCP checksum incrementally:
// HC' = ~(~HC + ~m + m') over both halves (RFC 1624 eqn. 3).
func patch32(raw []byte, off int, v uint32) {
	old := binary.BigEndian.Uint32(raw[off:])
	if old == v {
		return
	}
	binary.BigEndian.PutUint32(raw[off:], v)
	sum := uint32(^binary.BigEndian.Uint16(raw[offTCPSum:]))
	sum += uint32(^uint16(old>>16)) + uint32(^uint16(old))
	sum += v>>16 + v&0xffff
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(raw[offTCPSum:], ^uint16(sum))
}

// churnFlow is one pre-built short flow: SYN, SYN-ACK, ACK, two 64-byte
// data segments and a FIN each way.
type churnFlow [7][]byte

// churnKey returns the forward key of churn flow i of a pool built
// with seed: distinct source (address, port) pairs towards one server.
func churnKey(seed int64, i int) filter.Key {
	const portsPerAddr = 60000
	n := int(uint64(seed)%4096)*16 + i
	return filter.Key{
		SrcIP:   ip.AddrFrom4(12, 0, 0, 1) + ip.Addr(n/portsPerAddr),
		SrcPort: uint16(1024 + n%portsPerAddr),
		DstIP:   mobileAddr, DstPort: serverPort,
	}
}

// buildChurnPool pre-marshals n complete flows with pairwise distinct
// keys. The buffers are never patched: the inline plane consumes a
// packet before the hook returns, and a key is only replayed after its
// queues were torn down.
func buildChurnPool(seed int64, n int) []churnFlow {
	rng := rand.New(rand.NewSource(seed))
	pay := pattern(64)
	pool := make([]churnFlow, n)
	for i := range pool {
		k := churnKey(seed, i)
		seq, ack := 1<<16+rng.Uint32()%(1<<30), 1<<16+rng.Uint32()%(1<<30)
		fwd := func(s tcp.Segment) []byte {
			s.SrcPort, s.DstPort, s.Window = k.SrcPort, k.DstPort, 65535
			return marshal(k.SrcIP, k.DstIP, s)
		}
		rev := func(s tcp.Segment) []byte {
			s.SrcPort, s.DstPort, s.Window = k.DstPort, k.SrcPort, 65535
			return marshal(k.DstIP, k.SrcIP, s)
		}
		d := uint32(len(pay))
		pool[i] = churnFlow{
			fwd(tcp.Segment{Seq: seq, Flags: tcp.FlagSYN}),
			rev(tcp.Segment{Seq: ack, Ack: seq + 1, Flags: tcp.FlagSYN | tcp.FlagACK}),
			fwd(tcp.Segment{Seq: seq + 1, Ack: ack + 1, Flags: tcp.FlagACK}),
			fwd(tcp.Segment{Seq: seq + 1, Ack: ack + 1, Flags: tcp.FlagACK, Payload: pay}),
			fwd(tcp.Segment{Seq: seq + 1 + d, Ack: ack + 1, Flags: tcp.FlagACK, Payload: pay}),
			fwd(tcp.Segment{Seq: seq + 1 + 2*d, Ack: ack + 1, Flags: tcp.FlagFIN | tcp.FlagACK}),
			rev(tcp.Segment{Seq: ack + 1, Ack: seq + 2 + 2*d, Flags: tcp.FlagFIN | tcp.FlagACK}),
		}
	}
	return pool
}

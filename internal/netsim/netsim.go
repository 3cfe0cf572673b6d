// Package netsim models the network the thesis ran on: wired hosts,
// routers, and mobile hosts joined by point-to-point links with
// configurable bandwidth, propagation delay, queue capacity, and loss.
//
// Wireless links are ordinary links with low bandwidth and a non-zero
// loss model (independent Bernoulli or bursty Gilbert–Elliott), which
// captures the "wireless variability" of thesis §2.3: the phenomena the
// service proxy's filters respond to are loss, delay, and bandwidth
// asymmetry, all of which are link-level parameters here. A link that
// varies in time replays a committed TraceProfile: its dynamics are
// part of the experiment's input, not drawn from a random process.
//
// # Datagram ownership
//
// A datagram handed to the network — through SendIP, SendIPFrom,
// SendDatagram or InjectPacket, or returned by a Hook — is the
// network's from then on, and it has exactly one owner at a time: the
// link carrying it, then the node it arrives at. Each Network keeps a
// free list of datagram buffers (Node.Datagram hands them out), and a
// buffer goes back to it at the one place its datagram dies: after the
// local ProtoHandler returns, when a Hook does not re-emit it, or at a
// drop site (bad header, TTL expiry, no route, link down or detached,
// zero capacity, full queue, loss, ARQ exhausted). A forwarding node
// rewrites TTL and header checksum in place. A service proxy
// re-marshals each packet it edits into a buffer from its node's
// Datagram (filter.Packet.Remarshal), so on a node that buffer comes
// back at the same places; the concurrent plane's shard, with no
// network behind its node, hands it back through Node.Release once its
// sink has returned. Everyone else keeps three rules:
//   - a sender never touches a buffer after handing it over, and never
//     hands the same buffer over twice: the second send is a copy;
//   - a ProtoHandler's payload and raw, and every slice a transport
//     hands up from them (tcp.Conn.OnData's b, udp.Handler's payload),
//     are valid only during the call: whoever keeps bytes copies them;
//   - a Hook either re-emits raw as is or gives it up.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Broadcast is the all-ones limited-broadcast address: packets sent to
// it are delivered to the node at the far end of the egress link and
// never forwarded.
var Broadcast = ip.MustParseAddr("255.255.255.255")

// LossModel decides the fate of each packet crossing a link direction.
type LossModel interface {
	// Drop reports whether the packet carrying n bytes is lost.
	Drop(rng *rand.Rand, n int) bool
}

// NoLoss never drops packets (wired links).
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*rand.Rand, int) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct{ P float64 }

// Drop implements LossModel.
func (b Bernoulli) Drop(rng *rand.Rand, _ int) bool { return rng.Float64() < b.P }

// GilbertElliott is a two-state burst-loss model: in the Good state
// packets survive, in the Bad state they drop with probability PBad.
// PGB and PBG are the per-packet transition probabilities.
type GilbertElliott struct {
	PGB, PBG float64 // good→bad and bad→good transition probabilities
	PBad     float64 // drop probability while in the bad state
	bad      bool
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(rng *rand.Rand, _ int) bool {
	if g.bad {
		if rng.Float64() < g.PBG {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGB {
			g.bad = true
		}
	}
	if g.bad {
		return rng.Float64() < g.PBad
	}
	return false
}

// LinkConfig describes one direction of a link. Zero values select a
// fast, lossless, generously buffered wire.
type LinkConfig struct {
	Bandwidth int64         // bits per second; 0 = 100 Mb/s
	Delay     time.Duration // propagation delay; 0 = 1ms
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// packet — the delay variation of a contended wireless medium
	// (thesis §2.3: "packet loss and retransmission will cause
	// variable delays"). Packets are re-sequenced on arrival order,
	// so large jitter can reorder.
	Jitter   time.Duration
	QueueLen int       // max packets queued for transmission; 0 = 64
	Loss     LossModel // nil = NoLoss
	// ARQ, when non-nil, layers an AIRMAIL-style link-layer
	// retransmission scheme under the loss model (thesis §3.2): frames
	// the loss model kills are redelivered after retransmission rounds
	// instead of lost, and a retransmission may duplicate a frame that
	// actually arrived. The transport above sees (almost) no loss but
	// variable delay and duplicates — the exact artifacts that confuse
	// TCP and that the TCP-aware snoop avoids.
	ARQ *ARQConfig
}

// ARQConfig parameterizes the link-layer retransmission model.
type ARQConfig struct {
	// RetransDelay is the cost of one retransmission round (frame
	// timeout + resend), added per retry.
	RetransDelay time.Duration
	// MaxRetries bounds the rounds before the frame is truly lost.
	MaxRetries int
	// PDup is the probability that a retransmission round also
	// delivers a duplicate of the frame (the link-level ack was lost,
	// so the sender resent a frame the receiver already had).
	PDup float64
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e6
	}
	if c.Delay == 0 {
		c.Delay = time.Millisecond
	}
	if c.QueueLen == 0 {
		c.QueueLen = 64
	}
	if c.Loss == nil {
		c.Loss = NoLoss{}
	}
	return c
}

// LinkStats counts traffic over one direction of a link.
type LinkStats struct {
	Packets, Bytes int64 // accepted for transmission
	Dropped        int64 // lost to the loss model
	QueueDrops     int64 // lost to a full transmit queue
	DeliveredPkts  int64
	DeliveredBytes int64
	ARQRetries     int64 // link-layer retransmission rounds charged
	ARQDuplicates  int64 // frames delivered twice by the ARQ model
	// ZeroCapDrops counts packets offered while the direction was
	// shaped to zero capacity (blockage outage). Distinct from Dropped
	// (loss model) and QueueDrops (full queue): the link is up and
	// routable, it just cannot carry anything right now.
	ZeroCapDrops int64
	// PeakQueue is the high-water mark of the transmit queue.
	PeakQueue int
	// BusyTime accumulates serialization time, for utilization math.
	BusyTime time.Duration
}

// direction is the state of one direction of a duplex link.
type direction struct {
	cfg      LinkConfig
	nextFree sim.Time // when the transmitter finishes its current queue
	// ends is a ring of the serialisation end times of the packets in
	// the transmit queue, oldest first (nextFree only grows, so they
	// are in order): head indexes the oldest, n counts them. Its
	// QueueLen slots suffice: transmit drops a packet that finds n at
	// QueueLen, and no shaping changes QueueLen.
	ends    []sim.Time
	head, n int
	stats   LinkStats
	down    bool
}

// newDirection fills in cfg's defaults and sizes the ring of ends.
func newDirection(cfg LinkConfig) direction {
	cfg = cfg.withDefaults()
	return direction{cfg: cfg, ends: make([]sim.Time, max(cfg.QueueLen, 0))}
}

// queued pops the packets whose serialisation has ended by now and
// returns how many are still in the transmit queue. A packet whose
// serialisation ends at T has left the queue for anything offered at T.
func (d *direction) queued(now sim.Time) int {
	for d.n > 0 && d.ends[d.head] <= now {
		d.head++
		if d.head == len(d.ends) {
			d.head = 0
		}
		d.n--
	}
	return d.n
}

// enqueue appends a serialisation end behind the queue; the caller has
// checked that the queue is not full.
func (d *direction) enqueue(end sim.Time) {
	i := d.head + d.n
	if i >= len(d.ends) {
		i -= len(d.ends)
	}
	d.ends[i] = end
	d.n++
}

// Link is a duplex point-to-point link between two interfaces.
type Link struct {
	net  *Network
	a, b *Iface
	ab   direction // a -> b
	ba   direction // b -> a
}

// StatsAB and StatsBA return per-direction counters.
func (l *Link) StatsAB() LinkStats { return l.ab.stats }
func (l *Link) StatsBA() LinkStats { return l.ba.stats }

// IfaceA and IfaceB return the link's endpoints in Connect order.
func (l *Link) IfaceA() *Iface { return l.a }
func (l *Link) IfaceB() *Iface { return l.b }

// ConfigAB and ConfigBA return the per-direction configurations.
func (l *Link) ConfigAB() LinkConfig { return l.ab.cfg }
func (l *Link) ConfigBA() LinkConfig { return l.ba.cfg }

// SetDown disables or re-enables both directions. Packets sent on a
// down link vanish, and packets in flight when it goes down are lost —
// this is how mobile disconnection and handoff gaps are modelled.
func (l *Link) SetDown(down bool) {
	l.ab.down = down
	l.ba.down = down
}

// SetDownAB disables or re-enables only the a→b direction — an
// asymmetric outage (e.g. the mobile can still hear the base station
// but not reach it). Routing and transmission consult per-direction
// state, so the reverse direction keeps flowing.
func (l *Link) SetDownAB(down bool) { l.ab.down = down }

// Down reports whether any direction of the link is disabled. With the
// symmetric SetDown this is the familiar whole-link state; after a
// per-direction SetDownAB it means "not fully operational".
// Use DownAB/DownBA for the per-direction truth.
func (l *Link) Down() bool { return l.ab.down || l.ba.down }

// DownAB and DownBA report per-direction disabled state.
func (l *Link) DownAB() bool { return l.ab.down }
func (l *Link) DownBA() bool { return l.ba.down }

// Shape retunes the selected direction(s) of the link at run time —
// the mobility and blockage scenarios of §2.3 and the 5G pack. Only
// the fields named in s.Fields are applied; everything else keeps its
// current value, so an explicit zero is meaningful (Bandwidth 0 = no
// capacity, Delay 0 = instant propagation, Loss nil = lossless).
// Queued packets already scheduled keep their old serialization times.
func (l *Link) Shape(dir Direction, s Shaping) {
	if dir&DirAB != 0 {
		l.ab.apply(s)
	}
	if dir&DirBA != 0 {
		l.ba.apply(s)
	}
}

// ShapingAB and ShapingBA return the current tuning of one direction
// with every field marked set — ready to capture-and-restore around a
// temporary reshape (the fault injector's degrade path).
func (l *Link) ShapingAB() Shaping { return l.ab.shaping() }
func (l *Link) ShapingBA() Shaping { return l.ba.shaping() }

// QueuedAB and QueuedBA report the packets currently held in one
// direction's transmit queue — the proxy-side buffer occupancy the
// mmWave scenario compares with and without delay-aware window
// control.
func (l *Link) QueuedAB() int { return l.ab.queued(l.net.sched.Now()) }
func (l *Link) QueuedBA() int { return l.ba.queued(l.net.sched.Now()) }

// Iface is a node's attachment to a link.
type Iface struct {
	node *Node
	link *Link
	addr ip.Addr
}

// Addr returns the interface's IP address.
func (i *Iface) Addr() ip.Addr { return i.addr }

// Link returns the attached link (nil if detached).
func (i *Iface) Link() *Link { return i.link }

// peer returns the interface at the other end of the link.
func (i *Iface) peer() *Iface {
	if i.link == nil {
		return nil
	}
	if i.link.a == i {
		return i.link.b
	}
	return i.link.a
}

// dir returns the transmit direction for packets leaving i.
func (i *Iface) dir() *direction {
	if i.link.a == i {
		return &i.link.ab
	}
	return &i.link.ba
}

// Route maps a destination prefix to an egress interface.
type Route struct {
	Dst    ip.Addr
	Prefix int // prefix length; 0 matches everything (default route)
	Via    *Iface
}

// Hook intercepts packets arriving at a node, before routing or local
// delivery. It receives the raw datagram and the ingress interface and
// returns the datagrams that continue processing: return nil to drop,
// the input to pass through, or any number of (possibly rewritten)
// packets. The Comma service proxy installs itself as a Hook.
//
// Ownership: the returned slice is only valid until the hook's next
// invocation — hooks may (and the proxy does) reuse one emit slice
// for every packet, so the node consumes it synchronously and never
// retains it. The datagrams inside it follow the package's ownership
// rule: the hook re-emits raw as is or gives it up, keeps no part of
// it, and hands every datagram it returns to the node.
type Hook func(raw []byte, in *Iface) [][]byte

// Node is a host or router in the simulated network.
type Node struct {
	net      *Network
	name     string
	ifaces   []*Iface
	routes   []Route
	handlers map[byte]ProtoHandler
	hook     Hook
	ipID     uint16

	// Forwarding toggles router behaviour; hosts drop transit packets.
	Forwarding bool

	// Counters for the EEM's SNMP-style variables.
	Stats NodeStats
}

// NodeStats mirrors the SNMP MIB-II counters the EEM exports
// (thesis Table 6.1).
type NodeStats struct {
	IPInReceives      int64
	IPInHdrErrors     int64
	IPInAddrErrors    int64
	IPForwDatagrams   int64
	IPInUnknownProtos int64
	IPInDelivers      int64
	IPOutRequests     int64
	IPOutNoRoutes     int64
}

// ProtoHandler consumes locally delivered datagrams of one protocol.
// payload and raw are valid only during the call: the datagram's
// buffer is recycled when the handler returns (see the package
// comment), so a handler copies whatever it keeps.
type ProtoHandler func(h ip.Header, payload []byte, raw []byte, in *Iface)

// Network is a collection of nodes and links driven by one scheduler.
type Network struct {
	sched *sim.Scheduler
	nodes map[string]*Node
	// obs, when non-nil, receives link-level events (queue drops,
	// losses, ARQ activity). Never touched on the lossless fast path.
	obs *obs.Bus
	// flights holds released arrival records for reuse.
	flights []*flight
	// free holds released datagram buffers, each of capacity
	// datagramCap, for reuse (see Node.Datagram).
	free [][]byte
}

// datagramCap is the capacity of every recycled datagram buffer: room
// for a 1500-byte datagram. Larger datagrams get a buffer of their own
// that the free list never takes back.
const datagramCap = 1536

// poisonByte fills a released buffer when poisonReleased (race builds).
const poisonByte = 0xDB

// datagram returns a buffer of length n, recycled when one is free.
// Its bytes are whatever the last datagram left there: the caller
// writes all n of them.
func (n *Network) datagram(size int) []byte {
	if size > datagramCap {
		return make([]byte, size)
	}
	if k := len(n.free); k > 0 {
		b := n.free[k-1]
		n.free = n.free[:k-1]
		return b[:size]
	}
	return make([]byte, size, datagramCap)
}

// release takes back the buffer of a datagram that died. Under the
// race detector its bytes are poisoned first, so a use after release
// breaks a checksum or a digest instead of reading plausible data.
func (n *Network) release(b []byte) {
	if cap(b) != datagramCap {
		return
	}
	b = b[:datagramCap]
	if poisonReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
	n.free = append(n.free, b)
}

// clone copies a datagram into a buffer of its own, for the places
// where one datagram goes out twice.
func (n *Network) clone(raw []byte) []byte {
	b := n.datagram(len(raw))
	copy(b, raw)
	return b
}

// SetObs attaches the observability bus to the whole network.
func (n *Network) SetObs(b *obs.Bus) { n.obs = b }

// New creates an empty network on the given scheduler.
func New(s *sim.Scheduler) *Network {
	return &Network{sched: s, nodes: make(map[string]*Node)}
}

// AddNode creates a named node. Names must be unique.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	node := &Node{net: n, name: name, handlers: make(map[byte]ProtoHandler)}
	n.nodes[name] = node
	return node
}

// Connect joins two nodes with a duplex link. addrA and addrB become
// interface addresses on the respective nodes; cfg applies to both
// directions.
func (n *Network) Connect(a *Node, addrA ip.Addr, b *Node, addrB ip.Addr, cfg LinkConfig) *Link {
	return n.ConnectAsym(a, addrA, b, addrB, cfg, cfg)
}

// ConnectAsym is Connect with different configs per direction
// (cfgAB governs a→b traffic).
func (n *Network) ConnectAsym(a *Node, addrA ip.Addr, b *Node, addrB ip.Addr, cfgAB, cfgBA LinkConfig) *Link {
	l := &Link{net: n}
	ia := &Iface{node: a, link: l, addr: addrA}
	ib := &Iface{node: b, link: l, addr: addrB}
	l.a, l.b = ia, ib
	l.ab = newDirection(cfgAB)
	l.ba = newDirection(cfgBA)
	a.ifaces = append(a.ifaces, ia)
	b.ifaces = append(b.ifaces, ib)
	return l
}

// Disconnect detaches a link from both endpoints; packets in flight are
// lost. Used for mobile handoff.
func (n *Network) Disconnect(l *Link) {
	l.SetDown(true)
	l.a.node.removeIface(l.a)
	l.b.node.removeIface(l.b)
	l.a.link = nil
	l.b.link = nil
}

func (nd *Node) removeIface(target *Iface) {
	for i, f := range nd.ifaces {
		if f == target {
			nd.ifaces = append(nd.ifaces[:i], nd.ifaces[i+1:]...)
			return
		}
	}
}

// --- Node API ---------------------------------------------------------------

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Addr returns the node's primary address (its first interface), or 0.
func (nd *Node) Addr() ip.Addr {
	if len(nd.ifaces) == 0 {
		return 0
	}
	return nd.ifaces[0].addr
}

// Ifaces returns the node's interfaces.
func (nd *Node) Ifaces() []*Iface { return nd.ifaces }

// Clock returns the network's scheduler (satisfies tcp.Network).
func (nd *Node) Clock() *sim.Scheduler { return nd.net.sched }

// HasAddr reports whether a is one of the node's interface addresses.
func (nd *Node) HasAddr(a ip.Addr) bool {
	for _, f := range nd.ifaces {
		if f.addr == a {
			return true
		}
	}
	return false
}

// AddRoute installs a prefix route via the given interface.
func (nd *Node) AddRoute(dst ip.Addr, prefix int, via *Iface) {
	nd.routes = append(nd.routes, Route{Dst: dst.Mask(prefix), Prefix: prefix, Via: via})
}

// AddDefaultRoute installs the catch-all route.
func (nd *Node) AddDefaultRoute(via *Iface) { nd.AddRoute(0, 0, via) }

// ClearRoutes removes all routes (used at handoff).
func (nd *Node) ClearRoutes() { nd.routes = nil }

// lookupRoute returns the egress interface for dst by longest prefix.
func (nd *Node) lookupRoute(dst ip.Addr) *Iface {
	best := -1
	var via *Iface
	for _, r := range nd.routes {
		// Only the transmit direction matters for egress selection: a
		// link whose reverse direction is down still carries outbound
		// traffic (asymmetric outage).
		if r.Via.link == nil || r.Via.dir().down {
			continue
		}
		if dst.Mask(r.Prefix) == r.Dst && r.Prefix > best {
			best = r.Prefix
			via = r.Via
		}
	}
	return via
}

// RegisterProto installs the handler for an IP protocol number.
func (nd *Node) RegisterProto(proto byte, h ProtoHandler) { nd.handlers[proto] = h }

// SetHook installs the packet-interception hook (the service proxy).
func (nd *Node) SetHook(h Hook) { nd.hook = h }

// PacketHook returns the installed hook (benchmarks drive it
// directly to isolate filtering cost from the network simulation).
func (nd *Node) PacketHook() Hook { return nd.hook }

// Datagram hands out a datagram buffer of length n from the network's
// free list, for a sender to fill and pass to SendDatagram; the
// network takes it back where the datagram dies (see the package
// comment). Its bytes are stale: the sender writes all of them. It
// satisfies tcp.Network.
func (nd *Node) Datagram(n int) []byte { return nd.net.datagram(n) }

// Release takes back a datagram buffer that died outside the network,
// as the concurrent plane's shard does with each re-marshalled
// datagram once its sink has returned. Give back only what Datagram
// handed out and nothing reads any more: the free list keeps any
// buffer of a recycled buffer's capacity, whoever made it.
func (nd *Node) Release(b []byte) { nd.net.release(b) }

// SendIP builds and routes an IP datagram from this node's primary
// address. payload stays the caller's.
func (nd *Node) SendIP(dst ip.Addr, proto byte, payload []byte) {
	nd.SendIPFrom(nd.Addr(), dst, proto, payload)
}

// SendIPFrom is SendIP with an explicit source address.
func (nd *Node) SendIPFrom(src, dst ip.Addr, proto byte, payload []byte) {
	datagram := nd.Datagram(ip.HeaderLen + len(payload))
	copy(datagram[ip.HeaderLen:], payload)
	nd.SendDatagram(src, dst, proto, datagram)
}

// SendDatagram routes a datagram whose first ip.HeaderLen bytes are
// room for its IP header and whose rest is the payload: the header is
// written into that room, so a transport that marshals its segment
// behind it hands the network one buffer. The datagram is the
// network's from then on. It satisfies tcp.Network.
func (nd *Node) SendDatagram(src, dst ip.Addr, proto byte, datagram []byte) {
	nd.ipID++
	h := ip.Header{TTL: 64, Protocol: proto, ID: nd.ipID, Src: src, Dst: dst}
	if err := h.MarshalInto(datagram); err != nil {
		nd.net.release(datagram)
		return
	}
	nd.Stats.IPOutRequests++
	nd.routePacket(datagram, dst, nil)
}

// InjectPacket routes a pre-built raw IP datagram from this node. The
// service proxy uses it to re-inject filtered packets. raw is the
// network's from then on, like SendDatagram's.
func (nd *Node) InjectPacket(raw []byte) {
	h, _, err := ip.Unmarshal(raw)
	if err != nil {
		nd.net.release(raw)
		return
	}
	nd.Stats.IPOutRequests++
	nd.routePacket(raw, h.Dst, nil)
}

// routePacket picks an egress and transmits. in is the ingress iface
// for forwarded packets (nil for locally originated ones).
func (nd *Node) routePacket(raw []byte, dst ip.Addr, in *Iface) {
	// Direct delivery to a neighbour: if any interface's link peer owns
	// dst, use that link (implicit connected route). A broadcast goes
	// out on every such link, each but the last with a copy of its own.
	var bcast *Iface
	for _, f := range nd.ifaces {
		p := f.peer()
		if p != nil && (p.addr == dst || dst == Broadcast) && !f.dir().down {
			if dst != Broadcast {
				f.transmit(raw)
				return
			}
			if bcast != nil {
				bcast.transmit(nd.net.clone(raw))
			}
			bcast = f
		}
	}
	if dst == Broadcast {
		if bcast == nil {
			nd.net.release(raw)
			return
		}
		bcast.transmit(raw)
		return
	}
	via := nd.lookupRoute(dst)
	if via == nil {
		nd.Stats.IPOutNoRoutes++
		nd.net.release(raw)
		return
	}
	via.transmit(raw)
}

// receive processes a datagram arriving on iface in.
func (nd *Node) receive(raw []byte, in *Iface) {
	nd.Stats.IPInReceives++
	if !ip.VerifyChecksum(raw) {
		nd.Stats.IPInHdrErrors++
		nd.net.release(raw)
		return
	}
	if nd.hook == nil {
		nd.process(raw, in)
		return
	}
	// The hook's emit slice is borrowed: consume it before returning
	// (process never re-enters this node's hook synchronously — all
	// onward transmission is scheduler-deferred). Each datagram in it
	// is the node's; raw dies here unless the hook re-emitted it.
	kept := false
	for _, p := range nd.hook(raw, in) {
		kept = kept || len(p) > 0 && &p[0] == &raw[0]
		nd.process(p, in)
	}
	if !kept {
		nd.net.release(raw)
	}
}

// process delivers or forwards one datagram the node owns; every path
// either hands it on or releases it.
func (nd *Node) process(raw []byte, in *Iface) {
	// Decoded in place: a header returned by value would be copied out
	// with loads wider than Decode's stores, which stalls.
	var h ip.Header
	payload, err := h.Decode(raw)
	if err != nil {
		nd.Stats.IPInHdrErrors++
		nd.net.release(raw)
		return
	}
	if nd.HasAddr(h.Dst) || h.Dst == Broadcast {
		nd.deliverLocal(h, payload, raw, in)
		return
	}
	if !nd.Forwarding {
		nd.Stats.IPInAddrErrors++
		nd.net.release(raw)
		return
	}
	if h.TTL <= 1 {
		// RFC 1213 counts "time-to-live exceeded" among header errors.
		nd.Stats.IPInHdrErrors++
		nd.net.release(raw)
		return
	}
	// Rewrite TTL and checksum in place, then forward.
	raw[8] = h.TTL - 1
	raw[10], raw[11] = 0, 0
	hl := int(raw[0]&0x0f) * 4
	ck := ip.Checksum(raw[:hl])
	raw[10], raw[11] = byte(ck>>8), byte(ck)
	nd.Stats.IPForwDatagrams++
	nd.routePacket(raw, h.Dst, in)
}

// deliverLocal hands the datagram to its protocol's handler; it dies
// when the handler returns.
func (nd *Node) deliverLocal(h ip.Header, payload []byte, raw []byte, in *Iface) {
	handler, ok := nd.handlers[h.Protocol]
	if !ok {
		nd.Stats.IPInUnknownProtos++
		nd.net.release(raw)
		return
	}
	nd.Stats.IPInDelivers++
	handler(h, payload, raw, in)
	nd.net.release(raw)
}

// arqRecover redelivers a frame the loss model killed, charging one
// retransmission round per further loss, possibly duplicating it, and
// giving up after MaxRetries rounds.
func (d *direction) arqRecover(s *sim.Scheduler, peer *Iface, pkt []byte) {
	a := d.cfg.ARQ
	extra := time.Duration(0)
	for r := 1; r <= a.MaxRetries; r++ {
		extra += a.RetransDelay
		// Each retransmission round costs link capacity whether or not
		// it ultimately delivers, so charge it as it happens — a frame
		// that exhausts its budget still spent MaxRetries rounds.
		d.stats.ARQRetries++
		if d.cfg.Loss.Drop(s.Rand(), len(pkt)) {
			continue // this round lost too
		}
		dup := a.PDup > 0 && s.Rand().Float64() < a.PDup
		if b := peer.link.net.obs; b.Enabled() {
			b.Emit("netsim", "arq-recovered", linkKey(peer), obs.F("rounds", r), obs.F("len", len(pkt)))
		}
		s.After(extra, func() {
			n := peer.node.net
			if d.down || peer.link == nil {
				n.release(pkt)
				return
			}
			d.stats.DeliveredPkts++
			d.stats.DeliveredBytes += int64(len(pkt))
			if !dup {
				peer.node.receive(pkt, peer)
				return
			}
			// The duplicate is a datagram of its own: receiving the
			// first may forward it in place or recycle it.
			second := n.clone(pkt)
			peer.node.receive(pkt, peer)
			d.stats.ARQDuplicates++
			peer.node.receive(second, peer)
		})
		return
	}
	d.stats.Dropped++ // exhausted the retry budget
	n := peer.node.net
	if b := n.obs; b.Enabled() {
		b.Emit("netsim", "arq-exhausted", linkKey(peer), obs.F("rounds", a.MaxRetries), obs.F("len", len(pkt)))
	}
	n.release(pkt)
}

// linkKey renders the direction delivering to peer as "src->dst".
func linkKey(peer *Iface) string {
	return peer.peer().addr.String() + "->" + peer.addr.String()
}

// peerAddr renders f's link peer address, or "?" while detached.
func peerAddr(f *Iface) string {
	if p := f.peer(); p != nil {
		return p.addr.String()
	}
	return "?"
}

// RegisterMetrics exposes both directions' counters under prefix:
// "<prefix>.ab.*" covers a→b traffic, "<prefix>.ba.*" the reverse.
func (l *Link) RegisterMetrics(r *obs.Registry, prefix string) {
	reg := func(d *direction, p string) {
		r.Counter(p+".packets", func() int64 { return d.stats.Packets })
		r.Counter(p+".bytes", func() int64 { return d.stats.Bytes })
		r.Counter(p+".dropped", func() int64 { return d.stats.Dropped })
		r.Counter(p+".queue_drops", func() int64 { return d.stats.QueueDrops })
		r.Counter(p+".delivered_pkts", func() int64 { return d.stats.DeliveredPkts })
		r.Counter(p+".delivered_bytes", func() int64 { return d.stats.DeliveredBytes })
		r.Counter(p+".arq_retries", func() int64 { return d.stats.ARQRetries })
		r.Counter(p+".arq_duplicates", func() int64 { return d.stats.ARQDuplicates })
	}
	reg(&l.ab, prefix+".ab")
	reg(&l.ba, prefix+".ba")
}

// RegisterMetrics exposes the node's IP MIB counters under prefix.
func (nd *Node) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+".ip_in_receives", func() int64 { return nd.Stats.IPInReceives })
	r.Counter(prefix+".ip_in_hdr_errors", func() int64 { return nd.Stats.IPInHdrErrors })
	r.Counter(prefix+".ip_in_addr_errors", func() int64 { return nd.Stats.IPInAddrErrors })
	r.Counter(prefix+".ip_forw_datagrams", func() int64 { return nd.Stats.IPForwDatagrams })
	r.Counter(prefix+".ip_in_delivers", func() int64 { return nd.Stats.IPInDelivers })
	r.Counter(prefix+".ip_out_requests", func() int64 { return nd.Stats.IPOutRequests })
	r.Counter(prefix+".ip_out_no_routes", func() int64 { return nd.Stats.IPOutNoRoutes })
}

// transmit serializes a packet onto the interface's link direction.
func (f *Iface) transmit(raw []byte) {
	l := f.link
	if l == nil {
		f.node.net.release(raw)
		return
	}
	d := f.dir()
	if d.down {
		l.net.release(raw)
		return
	}
	if d.cfg.Bandwidth <= 0 {
		// Shaped to zero capacity: the direction is up and routable but
		// cannot serialize anything — a deep-blockage outage, distinct
		// from link-down (routing would avoid that) and from a full
		// queue (which will drain).
		d.stats.ZeroCapDrops++
		if b := l.net.obs; b.Enabled() {
			b.Emit("netsim", "zero-capacity", f.addr.String()+"->"+peerAddr(f), obs.F("len", len(raw)))
		}
		l.net.release(raw)
		return
	}
	s := l.net.sched
	now := s.Now()
	if d.queued(now) >= d.cfg.QueueLen {
		d.stats.QueueDrops++
		if b := l.net.obs; b.Enabled() {
			b.Emit("netsim", "queue-drop", f.addr.String()+"->"+peerAddr(f), obs.F("len", len(raw)))
		}
		l.net.release(raw)
		return
	}
	start := d.nextFree
	if start < now {
		start = now
	}
	serialize := time.Duration(int64(len(raw)) * 8 * int64(time.Second) / d.cfg.Bandwidth)
	d.nextFree = start.Add(serialize)
	d.enqueue(d.nextFree)
	if d.n > d.stats.PeakQueue {
		d.stats.PeakQueue = d.n
	}
	d.stats.Packets++
	d.stats.Bytes += int64(len(raw))
	d.stats.BusyTime += serialize
	delay := d.cfg.Delay
	if d.cfg.Jitter > 0 {
		delay += time.Duration(s.Rand().Int63n(int64(d.cfg.Jitter)))
	}
	// One event a packet: its arrival at the peer (a recycled flight).
	// The end of its serialisation is no event: it waits in the ring
	// until a reader of the queue finds it passed. The datagram is
	// carried as is: the flight owns it until it lands.
	fl := l.net.flight()
	fl.d, fl.peer, fl.pkt, fl.link = d, f.peer(), raw, l
	s.Schedule(d.nextFree.Add(delay), fl)
}

// flight is one packet crossing a link direction: the arrival event
// Iface.transmit schedules. Records are recycled on the Network.
type flight struct {
	d    *direction
	peer *Iface
	pkt  []byte
	link *Link
}

// flight returns a cleared flight record, recycled when one is free.
func (n *Network) flight() *flight {
	if k := len(n.flights); k > 0 {
		fl := n.flights[k-1]
		n.flights = n.flights[:k-1]
		return fl
	}
	return new(flight)
}

// Fire delivers the packet at the far end of the link, unless the
// link went down while it was in flight or the loss model takes it.
// The record goes back to the Network first, so the delivery's own
// transmissions can reuse it.
func (fl *flight) Fire() {
	d, peer, pkt, l := fl.d, fl.peer, fl.pkt, fl.link
	*fl = flight{}
	l.net.flights = append(l.net.flights, fl)
	if d.down || peer.link == nil {
		l.net.release(pkt) // link went down while in flight
		return
	}
	s := l.net.sched
	if d.cfg.Loss.Drop(s.Rand(), len(pkt)) {
		if d.cfg.ARQ != nil {
			d.arqRecover(s, peer, pkt)
			return
		}
		d.stats.Dropped++
		if b := l.net.obs; b.Enabled() {
			b.Emit("netsim", "loss", linkKey(peer), obs.F("len", len(pkt)))
		}
		l.net.release(pkt)
		return
	}
	d.stats.DeliveredPkts++
	d.stats.DeliveredBytes += int64(len(pkt))
	peer.node.receive(pkt, peer)
}

// Package mobileip implements the Mobile IP substrate of thesis §2.1:
// home agents that intercept and tunnel traffic for registered
// mobiles, foreign agents that advertise care-of service and
// decapsulate tunnels, mobile-side registration driven by ICMP router
// discovery, and handoff between foreign agents — including the
// triangular-routing behaviour and handoff packet loss the thesis
// discusses, plus the proposed binding-cache route optimization as a
// comparator.
package mobileip

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Registration messages run over UDP-less raw IP for simplicity: the
// simulator delivers them as their own protocol number (private range).
const (
	// ProtoRegistration carries mobile-IP registration requests and
	// replies (stand-in for the RFC 2002 UDP port 434 exchange).
	ProtoRegistration = 250
	// ProtoBindingUpdate carries binding-cache updates for the route
	// optimization extension (§2.1's proposed triangular-routing fix).
	ProtoBindingUpdate = 251
)

// regMessage is the wire form of a registration request or reply.
type regMessage struct {
	Reply    bool
	Mobile   ip.Addr // the mobile's home address
	CareOf   ip.Addr // the foreign agent's care-of address
	Lifetime uint16  // seconds
}

func marshalReg(m regMessage) []byte {
	b := make([]byte, 11)
	if m.Reply {
		b[0] = 1
	}
	binary.BigEndian.PutUint32(b[1:], uint32(m.Mobile))
	binary.BigEndian.PutUint32(b[5:], uint32(m.CareOf))
	binary.BigEndian.PutUint16(b[9:], m.Lifetime)
	return b
}

func unmarshalReg(b []byte) (regMessage, error) {
	var m regMessage
	if len(b) < 11 {
		return m, fmt.Errorf("mobileip: short registration message")
	}
	m.Reply = b[0] == 1
	m.Mobile = ip.Addr(binary.BigEndian.Uint32(b[1:]))
	m.CareOf = ip.Addr(binary.BigEndian.Uint32(b[5:]))
	m.Lifetime = binary.BigEndian.Uint16(b[9:])
	return m, nil
}

// binding is a mobile → care-of mapping with an expiry.
type binding struct {
	careOf  ip.Addr
	expires sim.Time
}

// HomeAgent intercepts packets addressed to its registered mobiles and
// tunnels them to the mobile's current care-of address (thesis §2.1).
type HomeAgent struct {
	node     *netsim.Node
	bindings map[ip.Addr]binding
	tunnelID uint16
	emit     [][]byte // reusable hook return (netsim.Hook contract)

	// Stats for the experiments.
	Tunneled  int64
	NoBinding int64
}

// NewHomeAgent attaches home-agent behaviour to a router node. The
// node must already route/forward for the home network.
func NewHomeAgent(node *netsim.Node) *HomeAgent {
	ha := &HomeAgent{node: node, bindings: make(map[ip.Addr]binding)}
	node.RegisterProto(ProtoRegistration, ha.handleRegistration)
	node.SetHook(ha.intercept)
	return ha
}

// Register records (or refreshes) a mobile's care-of binding.
func (ha *HomeAgent) Register(mobile, careOf ip.Addr, lifetime time.Duration) {
	ha.bindings[mobile] = binding{careOf: careOf, expires: ha.node.Clock().Now().Add(lifetime)}
}

// handleRegistration processes registration requests arriving via a
// foreign agent and answers with a reply.
func (ha *HomeAgent) handleRegistration(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	m, err := unmarshalReg(payload)
	if err != nil || m.Reply {
		return
	}
	ha.Register(m.Mobile, m.CareOf, time.Duration(m.Lifetime)*time.Second)
	reply := marshalReg(regMessage{Reply: true, Mobile: m.Mobile, CareOf: m.CareOf, Lifetime: m.Lifetime})
	ha.node.SendIP(h.Src, ProtoRegistration, reply)
}

// intercept tunnels packets destined for registered mobiles.
func (ha *HomeAgent) intercept(raw []byte, in *netsim.Iface) [][]byte {
	h, _, err := ip.Unmarshal(raw)
	if err != nil {
		return ha.emitOne(raw)
	}
	b, ok := ha.bindings[h.Dst]
	if !ok || ha.node.Clock().Now() > b.expires {
		if _, registered := ha.bindings[h.Dst]; registered {
			ha.NoBinding++
		}
		return ha.emitOne(raw)
	}
	if h.Protocol == ip.ProtoIPIP {
		return ha.emitOne(raw) // already tunneled
	}
	ha.tunnelID++
	enc, err := ip.Encapsulate(ha.node.Addr(), b.careOf, raw, ha.tunnelID)
	if err != nil {
		return ha.emitOne(raw)
	}
	ha.Tunneled++
	return ha.emitOne(enc)
}

// emitOne returns pkt via the agent's reusable emit slice (see
// netsim.Hook's ownership contract).
func (ha *HomeAgent) emitOne(pkt []byte) [][]byte {
	if len(ha.emit) > 0 {
		ha.emit[0] = nil
	}
	ha.emit = append(ha.emit[:0], pkt)
	return ha.emit
}

// ForeignAgent advertises care-of service on its wireless network,
// relays mobile registrations to home agents, and decapsulates
// arriving tunnels (thesis §2.1).
type ForeignAgent struct {
	node    *netsim.Node
	careOf  ip.Addr
	mobiles map[ip.Addr]bool // mobiles currently visiting

	advTimer sim.Timer

	// Stats.
	Decapsulated       int64
	AdvsSent           int64
	DroppedUnreachable int64 // tunneled packets for a departed mobile
}

// NewForeignAgent attaches foreign-agent behaviour to a router node.
// careOf is the address home agents tunnel to (one of node's).
func NewForeignAgent(node *netsim.Node, careOf ip.Addr) *ForeignAgent {
	fa := &ForeignAgent{node: node, careOf: careOf, mobiles: make(map[ip.Addr]bool)}
	node.RegisterProto(ip.ProtoIPIP, fa.handleTunnel)
	node.RegisterProto(ProtoRegistration, fa.relayRegistration)
	node.RegisterProto(ip.ProtoICMP, fa.handleICMP)
	return fa
}

// StartAdvertising broadcasts mobility-agent router advertisements
// every interval (RFC 1256 style, thesis §2.1).
func (fa *ForeignAgent) StartAdvertising(interval time.Duration) {
	var tick func()
	tick = func() {
		fa.sendAdvertisement()
		fa.advTimer = fa.node.Clock().After(interval, tick)
	}
	tick()
}

// StopAdvertising cancels the periodic advertisements.
func (fa *ForeignAgent) StopAdvertising() { fa.advTimer.Stop() }

func (fa *ForeignAgent) sendAdvertisement() {
	fa.AdvsSent++
	adv := ip.MarshalRouterAdvertisement(ip.RouterAdvertisement{
		Lifetime:   30,
		Addrs:      []ip.Addr{fa.careOf},
		AgentFlags: ip.AgentFlagFA,
	})
	fa.node.SendIPFrom(fa.careOf, netsim.Broadcast, ip.ProtoICMP, adv)
}

// handleICMP answers router solicitations from newly arrived mobiles.
func (fa *ForeignAgent) handleICMP(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	m, err := ip.UnmarshalICMP(payload)
	if err != nil {
		return
	}
	if m.Type == ip.ICMPRouterSolicitation {
		fa.sendAdvertisement()
	}
}

// relayRegistration forwards a mobile's registration request to its
// home agent (addressed by the packet's original destination) and
// passes replies back down to the mobile.
func (fa *ForeignAgent) relayRegistration(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	m, err := unmarshalReg(payload)
	if err != nil {
		return
	}
	if m.Reply {
		// Reply from the HA: note the visitor, hand the reply to the
		// mobile.
		fa.mobiles[m.Mobile] = true
		fa.node.SendIPFrom(fa.careOf, m.Mobile, ProtoRegistration, payload)
		return
	}
	// Request from the mobile: stamp our care-of address and relay to
	// the HA (the request's IP destination).
	m.CareOf = fa.careOf
	fa.node.SendIPFrom(fa.careOf, h.Dst, ProtoRegistration, marshalReg(m))
}

// handleTunnel decapsulates IP-in-IP packets and forwards the inner
// datagram toward the visiting mobile. If the mobile is not reachable
// on any local link (it detached mid-handoff), the packet is dropped —
// the thesis §2.1 behaviour: "these packets may either be dropped by
// the FA, relying on higher-level communication protocols to handle
// the loss".
func (fa *ForeignAgent) handleTunnel(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	// Decapsulate copies the inner datagram out of raw, which the
	// network recycles when this handler returns.
	inner, err := ip.Decapsulate(raw)
	if err != nil {
		return
	}
	ih, _, err := ip.Unmarshal(inner)
	if err != nil {
		return
	}
	if !fa.mobileReachable(ih.Dst) {
		fa.DroppedUnreachable++
		return
	}
	fa.Decapsulated++
	// If a service proxy is installed on this node, decapsulated
	// traffic runs through its filter queues like natively-routed
	// traffic — otherwise a stream migrated to this FA's SP would slip
	// past its own services the moment it arrives through the tunnel.
	if hook := fa.node.PacketHook(); hook != nil {
		for _, out := range hook(inner, in) {
			fa.node.InjectPacket(out)
		}
		return
	}
	fa.node.InjectPacket(inner)
}

// mobileReachable reports whether addr is a live link neighbour.
func (fa *ForeignAgent) mobileReachable(addr ip.Addr) bool {
	for _, f := range fa.node.Ifaces() {
		l := f.Link()
		if l == nil || l.Down() {
			continue
		}
		peer := l.IfaceA()
		if peer == f {
			peer = l.IfaceB()
		}
		if peer.Addr() == addr {
			return true
		}
	}
	return false
}

// Mobile is the mobile host's Mobile IP machinery: it discovers
// foreign agents from advertisements and registers through them with
// its home agent.
type Mobile struct {
	node *netsim.Node
	home ip.Addr // home agent address
	addr ip.Addr // the mobile's permanent home address

	currentFA ip.Addr
	// OnRegistered fires when a registration reply arrives.
	OnRegistered func(careOf ip.Addr)

	// Stats.
	Registrations int64
	Handoffs      int64
}

// NewMobile attaches mobile behaviour to a host node. homeAgent is the
// HA's address; addr is the mobile's permanent home address.
func NewMobile(node *netsim.Node, homeAgent, addr ip.Addr) *Mobile {
	m := &Mobile{node: node, home: homeAgent, addr: addr}
	node.RegisterProto(ip.ProtoICMP, m.handleICMP)
	node.RegisterProto(ProtoRegistration, m.handleReply)
	return m
}

// Solicit broadcasts a router solicitation (after moving to a new
// network, thesis §2.1).
func (m *Mobile) Solicit() {
	sol := ip.MarshalICMP(ip.ICMPMessage{Type: ip.ICMPRouterSolicitation})
	m.node.SendIPFrom(m.addr, netsim.Broadcast, ip.ProtoICMP, sol)
}

// handleICMP watches for mobility-agent advertisements and registers
// with newly discovered foreign agents.
func (m *Mobile) handleICMP(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	msg, err := ip.UnmarshalICMP(payload)
	if err != nil || msg.Type != ip.ICMPRouterAdvertisement {
		return
	}
	adv, err := ip.ParseRouterAdvertisement(msg)
	if err != nil || adv.AgentFlags&ip.AgentFlagFA == 0 || len(adv.Addrs) == 0 {
		return
	}
	fa := adv.Addrs[0]
	if fa == m.currentFA {
		return // already registered here
	}
	if m.currentFA != 0 {
		m.Handoffs++
	}
	m.currentFA = fa
	m.register(fa)
}

// register sends a registration request toward the HA via the FA.
func (m *Mobile) register(fa ip.Addr) {
	m.Registrations++
	req := marshalReg(regMessage{Mobile: m.addr, CareOf: fa, Lifetime: 300})
	// Addressed to the HA; the FA relays and stamps the care-of.
	m.node.SendIPFrom(m.addr, m.home, ProtoRegistration, req)
}

// handleReply fires the registration callback.
func (m *Mobile) handleReply(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	msg, err := unmarshalReg(payload)
	if err != nil || !msg.Reply {
		return
	}
	if m.OnRegistered != nil {
		m.OnRegistered(msg.CareOf)
	}
}

// --- route optimization (binding caches, §2.1) -------------------------------

// BindingCache implements the proposed triangular-routing fix: a
// correspondent host caches the mobile's care-of address and tunnels
// directly, bypassing the home agent.
type BindingCache struct {
	node     *netsim.Node
	bindings map[ip.Addr]binding
	tunnelID uint16

	// DirectTunneled counts packets short-cut past the HA.
	DirectTunneled int64
}

// NewBindingCache attaches a binding cache to a correspondent host.
func NewBindingCache(node *netsim.Node) *BindingCache {
	bc := &BindingCache{node: node, bindings: make(map[ip.Addr]binding)}
	node.RegisterProto(ProtoBindingUpdate, bc.handleUpdate)
	return bc
}

// Learn records a binding directly (tests / explicit updates).
func (bc *BindingCache) Learn(mobile, careOf ip.Addr, lifetime time.Duration) {
	bc.bindings[mobile] = binding{careOf: careOf, expires: bc.node.Clock().Now().Add(lifetime)}
}

func (bc *BindingCache) handleUpdate(h ip.Header, payload, raw []byte, in *netsim.Iface) {
	m, err := unmarshalReg(payload)
	if err != nil {
		return
	}
	bc.Learn(m.Mobile, m.CareOf, time.Duration(m.Lifetime)*time.Second)
}

// WrapSend returns a send function that tunnels straight to the
// mobile's care-of address when a live binding exists, falling back to
// plain (triangular) routing otherwise. Hosts use it in place of
// Node.SendIP for traffic to mobiles.
func (bc *BindingCache) WrapSend() func(dst ip.Addr, proto byte, payload []byte) {
	return func(dst ip.Addr, proto byte, payload []byte) {
		b, ok := bc.bindings[dst]
		if !ok || bc.node.Clock().Now() > b.expires {
			bc.node.SendIP(dst, proto, payload)
			return
		}
		h := ip.Header{TTL: 64, Protocol: proto, Src: bc.node.Addr(), Dst: dst}
		inner, err := h.Marshal(payload)
		if err != nil {
			return
		}
		bc.tunnelID++
		enc, err := ip.Encapsulate(bc.node.Addr(), b.careOf, inner, bc.tunnelID)
		if err != nil {
			return
		}
		bc.DirectTunneled++
		bc.node.InjectPacket(enc)
	}
}

// Package itcp implements the split-connection baseline of thesis
// §3.2 (Bakre & Badrinath's I-TCP): the proxy terminates the wired
// host's TCP connection locally — answering with the mobile's own
// address — and relays the byte stream over a second, independent
// connection to the mobile.
//
// It exists as a comparator: split connections insulate the wired
// sender from wireless behaviour, but they break end-to-end semantics —
// "data sent on the wired first half of the connection may be
// acknowledged by the proxy before the corresponding data has reached
// the final destination" (§5.1.2). Experiment E17 demonstrates exactly
// that failure, which is the thesis's motivation for the transparent
// (TTSF) approach instead.
package itcp

import (
	"bytes"
	"fmt"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Stats counts relay activity.
type Stats struct {
	Accepted int64 // wired-side connections terminated
}

// Relay is an I-TCP style Mobility Support Router function attached to
// one proxy node: for each configured (mobileAddr, port), inbound
// connections from the wired side are terminated at the proxy and
// re-originated toward the mobile.
type Relay struct {
	node   *netsim.Node
	mobile ip.Addr

	// wiredSide impersonates the mobile toward wired senders; packets
	// addressed to the mobile on relayed ports are hijacked into it.
	wiredSide *tcp.Stack
	// mobileSide originates the wireless-specific connections. The
	// thesis-era I-TCP used a wireless-tuned transport here; we use the
	// same TCP with its own (typically more aggressive) configuration,
	// which preserves the property under study: two independent
	// reliability domains.
	mobileSide *tcp.Stack

	ports map[uint16]bool
	pipes []*pipe

	// emit is the reusable pass-through return of hook (see
	// netsim.Hook's ownership contract).
	emit [][]byte

	Stats Stats
}

// pipe is one bridged connection pair.
type pipe struct {
	ackedToWired int64
	mobileConn   *tcp.Conn
	mobileAcked  int64 // frozen at close; live value read from the conn
	closed       bool
}

// Stranded returns the number of bytes the relay acknowledged to wired
// senders that the mobile side has not acknowledged — data the sender
// wrongly believes delivered. A live, healthy relay has a small
// in-flight value here; after a mobile-side failure it is permanent
// loss (the §5.1.2 end-to-end hazard).
func (r *Relay) Stranded() int64 {
	var total int64
	for _, p := range r.pipes {
		acked := p.mobileAcked
		if !p.closed {
			acked = p.mobileConn.Stats().BytesAcked
		}
		if d := p.ackedToWired - acked; d > 0 {
			total += d
		}
	}
	return total
}

// New attaches a relay to the proxy node for connections to
// mobile:port.
func New(node *netsim.Node, mobile ip.Addr, ports []uint16) (*Relay, error) {
	r := &Relay{
		node:       node,
		mobile:     mobile,
		wiredSide:  tcp.NewStack(node, tcp.Config{}),
		mobileSide: tcp.NewStack(node, tcp.Config{}),
		ports:      make(map[uint16]bool),
	}
	for _, p := range ports {
		p := p
		r.ports[p] = true
		if _, err := r.wiredSide.Listen(p, func(c *tcp.Conn) { r.accept(c, p) }); err != nil {
			return nil, fmt.Errorf("itcp: %w", err)
		}
	}
	node.SetHook(r.hook)
	node.RegisterProto(ip.ProtoTCP, func(h ip.Header, payload, raw []byte, in *netsim.Iface) {
		// Mobile-side traffic addressed to the proxy itself.
		r.mobileSide.Deliver(h.Src, h.Dst, payload)
	})
	return r, nil
}

// hook hijacks wired-side segments addressed to the mobile on relayed
// ports into the local impersonating stack; everything else passes.
func (r *Relay) hook(raw []byte, in *netsim.Iface) [][]byte {
	pkt, err := filter.Parse(raw)
	if err != nil {
		return r.passThrough(raw)
	}
	if pkt.TCP == nil {
		pkt.Release()
		return r.passThrough(raw)
	}
	// Wired -> mobile on a relayed port: terminate locally.
	if pkt.IP.Dst == r.mobile && r.ports[pkt.TCP.DstPort] {
		r.wiredSide.Deliver(pkt.IP.Src, pkt.IP.Dst, pkt.Data)
		pkt.Release()
		return nil
	}
	// Mobile -> wired replies to the impersonated connections are
	// generated locally by wiredSide, so anything arriving *from* the
	// mobile for a relayed source port belongs to the mobileSide stack
	// and is delivered by the protocol handler (dst == proxy address).
	pkt.Release()
	return r.passThrough(raw)
}

func (r *Relay) passThrough(raw []byte) [][]byte {
	if len(r.emit) > 0 {
		r.emit[0] = nil
	}
	r.emit = append(r.emit[:0], raw)
	return r.emit
}

// accept bridges one wired-side connection to a fresh mobile-side
// connection.
func (r *Relay) accept(wired *tcp.Conn, port uint16) {
	r.Stats.Accepted++
	mobileConn, err := r.mobileSide.Connect(r.mobile, port)
	if err != nil {
		wired.Abort()
		return
	}
	p := &pipe{mobileConn: mobileConn}
	r.pipes = append(r.pipes, p)

	wired.OnData = func(b []byte) {
		// The wired side has already acknowledged these bytes (our
		// stack delivered them); relay them onward. If the mobile half
		// is dead the bytes are stranded — the wired sender cannot
		// know (§5.1.2). Write keeps its slice and b is valid only
		// during this call, so the relay writes a copy.
		p.ackedToWired += int64(len(b))
		mobileConn.Write(bytes.Clone(b))
	}
	wired.OnRemoteClose = func() {
		mobileConn.Close()
		wired.Close()
	}
	// Reverse direction: mobile -> wired.
	mobileConn.OnData = func(b []byte) { wired.Write(bytes.Clone(b)) }
	mobileConn.OnRemoteClose = func() { wired.Close() }
	mobileConn.OnClose = func(error) {
		p.mobileAcked = mobileConn.Stats().BytesAcked
		p.closed = true
	}
}

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
// (TTSF) approach instead. core.System.ArmRelay arms a relay on a
// Service Proxy site.
package itcp

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
	mobile ip.Addr
	ports  map[uint16]bool
	// next is the node's hook the relay sits in front of: it sees every
	// packet the relay does not terminate.
	next netsim.Hook

	// wiredSide impersonates the mobile toward wired senders; packets
	// addressed to the mobile on relayed ports are hijacked into it.
	wiredSide *tcp.Stack
	// mobileSide originates the wireless-side connections. The
	// thesis-era I-TCP used a wireless-tuned transport here; we use the
	// host's own TCP, which preserves the property under study: two
	// independent reliability domains.
	mobileSide *tcp.Stack

	pipes []*pipe

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

// New puts a relay for connections to mobile:ports in front of node's
// installed packet hook, which must be set (a Service Proxy's data
// plane): that hook still sees every packet the relay does not
// terminate. mobileSide is the host's own TCP stack, already receiving
// what is addressed to the host; the relay originates its
// mobile-side connections there, and impersonates the mobile on a
// second stack of the same configuration.
func New(node *netsim.Node, mobileSide *tcp.Stack, mobile ip.Addr, ports []uint16) (*Relay, error) {
	r := &Relay{
		mobile:     mobile,
		ports:      make(map[uint16]bool),
		next:       node.PacketHook(),
		wiredSide:  tcp.NewStack(node, mobileSide.Config()),
		mobileSide: mobileSide,
	}
	for _, p := range ports {
		r.ports[p] = true
		if _, err := r.wiredSide.Listen(p, func(c *tcp.Conn) { r.accept(c, p) }); err != nil {
			return nil, fmt.Errorf("itcp: %w", err)
		}
	}
	node.SetHook(r.hook)
	return r, nil
}

// hook terminates segments addressed to the mobile on relayed ports in
// the impersonating stack and hands everything else to the next hook.
// Replies from the mobile are addressed to the host itself, so they
// reach mobileSide through the node's protocol handler.
func (r *Relay) hook(raw []byte, in *netsim.Iface) [][]byte {
	h, seg, err := ip.Unmarshal(raw)
	if err == nil && h.Protocol == ip.ProtoTCP && h.Dst == r.mobile &&
		len(seg) >= 4 && r.ports[binary.BigEndian.Uint16(seg[2:])] {
		r.wiredSide.Deliver(h.Src, h.Dst, seg)
		return nil
	}
	return r.next(raw, in)
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

package tcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// State is a TCP connection state (RFC 793 §3.2).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Network is the IP service a Stack runs over: a host in the simulated
// network (or any other packet carrier). It owns every datagram handed
// to it, and the segments it delivers back through Stack.Deliver are
// valid only during the call (netsim's package comment states the
// contract).
type Network interface {
	// Datagram returns a buffer of length n for one outgoing datagram,
	// which the sender fills completely and passes to SendDatagram.
	Datagram(n int) []byte
	// SendDatagram emits an IP datagram from src to dst. Its first
	// ip.HeaderLen bytes are room for the IP header, which the network
	// writes in place; the rest is the protocol's payload. The source
	// is explicit so that on multi-homed hosts segments leave with the
	// address the connection is bound to. The datagram is the
	// network's from then on.
	SendDatagram(src, dst ip.Addr, proto byte, datagram []byte)
	// Addr returns the host's primary IP address.
	Addr() ip.Addr
	// Clock returns the scheduler driving this host.
	Clock() *sim.Scheduler
}

// Config tunes a Stack.
type Config struct {
	RcvWnd int // receive window in bytes, default 65535
}

// The stack's fixed protocol parameters. MSS, MinRTO and MaxRTO are
// exported because other packages report or size by them.
const (
	MSS    = 1460 // the MSS every SYN offers
	MinRTO = 200 * time.Millisecond
	MaxRTO = 60 * time.Second

	initialRTO      = time.Second
	timeWait        = time.Second            // shortened 2MSL for simulation
	persistBase     = 500 * time.Millisecond // zero-window probe base interval
	persistMax      = 8 * time.Second        // probe backoff cap
	initialCwndSegs = 2
)

type fourTuple struct {
	localAddr  ip.Addr
	localPort  uint16
	remoteAddr ip.Addr
	remotePort uint16
}

func (t fourTuple) String() string {
	return fmt.Sprintf("%v:%d -> %v:%d", t.localAddr, t.localPort, t.remoteAddr, t.remotePort)
}

// Stack is a host TCP implementation: a demultiplexer of segments to
// connections plus a listener table.
type Stack struct {
	net       Network
	cfg       Config
	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	ephemeral uint16

	// OnSegment, when non-nil, observes every segment the stack sends
	// (send=true) or receives (send=false), for traces and tests. It
	// gets a copy of the segment, valid only during the call; what it
	// edits is written back, so an edit on send changes what is sent.
	// While it is set, each segment costs one allocation (the copy);
	// without it a segment allocates nothing.
	OnSegment func(send bool, src, dst ip.Addr, seg *Segment)

	mib MIB
}

// NewStack creates a TCP stack on the given network host.
func NewStack(n Network, cfg Config) *Stack {
	if cfg.RcvWnd == 0 {
		cfg.RcvWnd = 65535
	}
	return &Stack{
		net:       n,
		cfg:       cfg,
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		ephemeral: 1024,
	}
}

// Config returns the stack's configuration, defaults filled in.
func (s *Stack) Config() Config { return s.cfg }

// Clock exposes the stack's scheduler so components layered on top
// (control sessions, supervisors) can arm timers on the same timeline.
func (s *Stack) Clock() *sim.Scheduler { return s.net.Clock() }

// Listener accepts inbound connections on a port.
type Listener struct {
	stack  *Stack
	port   uint16
	accept func(*Conn)
	closed bool
}

// Close stops accepting new connections. Existing connections live on.
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.stack.listeners, l.port)
	}
}

// Listen registers accept to be called with each connection that
// completes the handshake on port.
func (s *Stack) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, dup := s.listeners[port]; dup {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{stack: s, port: port, accept: accept}
	s.listeners[port] = l
	return l, nil
}

// Connect opens a connection to raddr:rport from an ephemeral local
// port. The returned Conn is in SYN_SENT; use OnEstablished to learn
// when the handshake completes.
func (s *Stack) Connect(raddr ip.Addr, rport uint16) (*Conn, error) {
	return s.ConnectFrom(0, raddr, rport)
}

// ConnectFrom is Connect with an explicit local port (0 = ephemeral).
func (s *Stack) ConnectFrom(lport uint16, raddr ip.Addr, rport uint16) (*Conn, error) {
	if lport == 0 {
		for i := 0; i < 65536; i++ {
			cand := s.ephemeral
			s.ephemeral++
			if s.ephemeral == 0 {
				s.ephemeral = 1024
			}
			if _, used := s.conns[fourTuple{s.net.Addr(), cand, raddr, rport}]; !used {
				lport = cand
				break
			}
		}
		if lport == 0 {
			return nil, errors.New("tcp: no free ephemeral ports")
		}
	}
	t := fourTuple{s.net.Addr(), lport, raddr, rport}
	if _, dup := s.conns[t]; dup {
		return nil, fmt.Errorf("tcp: connection %v already exists", t)
	}
	c := s.newConn(t)
	s.conns[t] = c
	s.mib.ActiveOpens++
	c.state = StateSynSent
	c.iss = uint32(s.net.Clock().Rand().Int31())
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.sendSegment(&Segment{Flags: FlagSYN, Seq: c.iss, Window: uint16(c.rcvWndSize()), MSS: MSS})
	c.armRetransmit()
	return c, nil
}

// Deliver hands the stack a TCP segment carried in an IP datagram from
// src to dst. Hosts call this from their protocol demux.
func (s *Stack) Deliver(src, dst ip.Addr, payload []byte) {
	s.mib.InSegs++
	if !VerifyChecksum(src, dst, payload) {
		s.mib.InErrs++
		return // corrupted in flight or by a buggy filter: drop silently
	}
	seg, err := Unmarshal(payload)
	if err != nil {
		s.mib.InErrs++
		return
	}
	if s.OnSegment != nil {
		s.trace(false, src, dst, &seg)
	}
	t := fourTuple{dst, seg.DstPort, src, seg.SrcPort}
	if c, ok := s.conns[t]; ok {
		c.handle(&seg)
		return
	}
	if l, ok := s.listeners[seg.DstPort]; ok && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		s.acceptSyn(l, t, &seg)
		return
	}
	// No socket: answer with RST unless the offender was itself a RST.
	if seg.Flags&FlagRST == 0 {
		rst := &Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Flags: FlagRST | FlagACK,
			Ack:   seg.Seq + seg.SeqLen(),
		}
		s.transmit(dst, src, rst)
	}
}

func (s *Stack) acceptSyn(l *Listener, t fourTuple, seg *Segment) {
	c := s.newConn(t)
	s.conns[t] = c
	s.mib.PassiveOpens++
	c.state = StateSynRcvd
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.iss = uint32(s.net.Clock().Rand().Int31())
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.sndWnd = int(seg.Window)
	if seg.MSS != 0 && seg.MSS < c.smss {
		c.smss = seg.MSS
	}
	c.acceptFn = l.accept
	c.sendSegment(&Segment{
		Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt,
		Window: uint16(c.rcvWndSize()), MSS: MSS,
	})
	c.armRetransmit()
}

// transmit counts, traces and emits a segment: every segment the
// stack sends, a connection's or an RST to an unknown port, goes out
// here. It marshals seg behind room for the IP header into a buffer
// the network hands out, and hands the one buffer back.
func (s *Stack) transmit(src, dst ip.Addr, seg *Segment) {
	s.mib.OutSegs++
	if s.OnSegment != nil {
		s.trace(true, src, dst, seg)
	}
	datagram := s.net.Datagram(ip.HeaderLen + seg.HeaderLength() + len(seg.Payload))
	s.net.SendDatagram(src, dst, ip.ProtoTCP, seg.AppendMarshal(datagram[:ip.HeaderLen], src, dst))
}

// trace shows OnSegment a copy of seg and writes the copy back. Only
// the copy escapes to the hook, so seg itself stays on its caller's
// stack whether or not a hook is set.
func (s *Stack) trace(send bool, src, dst ip.Addr, seg *Segment) {
	cp := *seg
	s.OnSegment(send, src, dst, &cp)
	*seg = cp
}

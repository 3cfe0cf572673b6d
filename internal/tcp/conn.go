package tcp

import (
	"errors"
	"sort"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Stats counts per-connection protocol events, used by the experiment
// harness to show where time and bandwidth went.
type Stats struct {
	BytesSent       int64 // payload bytes passed to the network (incl. rexmits)
	BytesAcked      int64 // payload bytes acknowledged by the peer
	BytesReceived   int64 // payload bytes delivered to the application
	SegmentsSent    int64
	SegmentsRcvd    int64
	Retransmits     int64 // fast retransmits + timeouts
	Timeouts        int64 // RTO firings
	FastRetransmits int64
	DupAcksRcvd     int64
	ZeroWindowSeen  int64 // times the peer advertised a zero window
	PersistProbes   int64
	// AcksAboveSndMax counts ACKs for sequence space never sent. Each is
	// re-ACKed and otherwise ignored; on an unmodified path there are
	// none, so a proxy that mistranslates an ACK shows up here.
	AcksAboveSndMax int64
}

// ErrReset is delivered to OnClose when the peer resets the connection.
var ErrReset = errors.New("tcp: connection reset by peer")

// Conn is one endpoint of a TCP connection. All methods must be called
// from the simulation goroutine (the event loop is single-threaded).
type Conn struct {
	stack *Stack
	tuple fourTuple
	state State
	smss  uint16 // effective send MSS after negotiation

	// Callbacks. All optional.
	OnEstablished func()
	OnData        func([]byte) // in-order payload, valid only during the call (copy it to keep or Write it)
	OnRemoteClose func()       // peer FIN arrived (read-side EOF)
	OnClose       func(error)  // nil error = clean close
	acceptFn      func(*Conn)  // listener accept, fired at establishment

	// Send state (RFC 793 names).
	iss       uint32
	sndUna    uint32 // oldest unacknowledged sequence number
	sndNxt    uint32 // next sequence number to send
	sndMax    uint32 // highest sequence number ever sent (>= sndNxt)
	sndWnd    int    // peer-advertised window
	sndWL1    uint32 // seq of segment used for last window update
	sndWL2    uint32 // ack of segment used for last window update
	sndBuf    []byte // unacknowledged + unsent data; sndBuf[0] is at seq bufSeq
	bufSeq    uint32 // sequence number of sndBuf[0] (== sndUna after SYN acked)
	finQueued bool   // application closed its write side
	finSent   bool

	// Receive state.
	irs     uint32
	rcvNxt  uint32
	oooSegs []oooSeg // out-of-order reassembly queue, sorted by seq
	finRcvd bool     // peer FIN processed (rcvNxt advanced past it)

	// Congestion control (Reno with NewReno partial-ack recovery).
	cwnd       int
	ssthresh   int
	dupAcks    int
	inRecovery bool
	recover    uint32 // snd.nxt at loss detection

	// RTT estimation (Jacobson/Karels, Karn's rule).
	srtt, rttvar time.Duration
	rto          time.Duration
	rttPending   bool
	rttSeq       uint32 // sequence number whose ACK samples the RTT
	rttStart     sim.Time
	backoff      uint

	rtxTimer     sim.Timer
	persistTimer sim.Timer
	persistShift uint
	probePending bool // a one-byte zero-window probe is outstanding
	twTimer      sim.Timer

	// The timers' callbacks, bound once in newConn rather than on
	// every arming.
	onRTO, onPersist, onTimeWait func()

	stats Stats
}

type oooSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

func (s *Stack) newConn(t fourTuple) *Conn {
	c := &Conn{
		stack:    s,
		tuple:    t,
		state:    StateClosed,
		smss:     MSS,
		rto:      initialRTO,
		ssthresh: 64 * 1024,
	}
	c.cwnd = int(c.smss) * initialCwndSegs
	c.onRTO = c.onRetransmitTimeout
	c.onPersist = c.persistProbe
	c.onTimeWait = func() { c.teardown(nil) }
	return c
}

// State returns the connection's current protocol state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats }

// LocalPort and RemotePort expose the connection's addressing.
func (c *Conn) LocalPort() uint16  { return c.tuple.localPort }
func (c *Conn) RemotePort() uint16 { return c.tuple.remotePort }

// LocalAddr and RemoteAddr expose the connection's endpoints.
func (c *Conn) LocalAddr() ip.Addr  { return c.tuple.localAddr }
func (c *Conn) RemoteAddr() ip.Addr { return c.tuple.remoteAddr }

// BufferedOut returns the number of payload bytes queued but not yet
// acknowledged (the send backlog).
func (c *Conn) BufferedOut() int { return len(c.sndBuf) }

// CongestionWindow returns the current cwnd in bytes (experiments).
func (c *Conn) CongestionWindow() int { return c.cwnd }

// RTO returns the current retransmission timeout (experiments).
func (c *Conn) RTO() time.Duration { return c.rto }

// SRTT returns the smoothed round-trip estimate (experiments).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// MSS returns the effective maximum segment size after negotiation.
func (c *Conn) MSS() int { return int(c.smss) }

func (c *Conn) clock() *sim.Scheduler { return c.stack.net.Clock() }

// Write queues p for transmission. The send buffer is unbounded; flow
// and congestion control pace the network, not the API.
//
// Write takes ownership of p: the connection may keep p itself as its
// send buffer until the peer acknowledges the bytes, so the caller must
// not modify p after Write (reading it stays safe — TCP only reads its
// send buffer). A read-only or freshly built p needs no copy.
func (c *Conn) Write(p []byte) error {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		return errors.New("tcp: write on closed connection")
	}
	if c.finQueued {
		return errors.New("tcp: write after Close")
	}
	if len(c.sndBuf) == 0 {
		// The capacity clip makes the next Write's append copy rather
		// than write into whatever follows p in its backing array.
		c.sndBuf = p[:len(p):len(p)]
	} else {
		c.sndBuf = append(c.sndBuf, p...)
	}
	c.output()
	return nil
}

// Close closes the write side: queued data is still delivered, then a
// FIN is sent. The read side stays open until the peer closes.
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.finQueued = true
		c.state = StateFinWait1
		c.output()
	case StateCloseWait:
		c.finQueued = true
		c.state = StateLastAck
		c.output()
	case StateSynSent:
		// Data may already be queued behind the handshake; defer the
		// FIN until establishment so it drains first.
		c.finQueued = true
	case StateClosed:
		c.teardown(nil)
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(&Segment{Flags: FlagRST | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	c.teardown(ErrReset)
}

// --- sequence bookkeeping -------------------------------------------------

// rcvWndSize computes the window to advertise. Delivered bytes leave
// TCP immediately via OnData, so the advertised window is simply the
// configured buffer size. Out-of-order segments are not charged
// against it: doing so would change the window field of duplicate
// ACKs, which would stop the peer (and the snoop filter) from
// recognizing them as duplicates.
func (c *Conn) rcvWndSize() int {
	w := c.stack.cfg.RcvWnd
	if w > 65535 {
		w = 65535
	}
	return w
}

// flightSize is the amount of data sent but not yet acknowledged.
func (c *Conn) flightSize() int { return int(c.sndNxt - c.sndUna) }

// --- output path -----------------------------------------------------------

// output transmits as much queued data as the congestion and peer
// windows allow, then the FIN if its turn has come.
func (c *Conn) output() {
	if c.state == StateSynSent || c.state == StateSynRcvd || c.state == StateClosed {
		return
	}
	wnd := c.sndWnd
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	for {
		inFlight := c.flightSize()
		// Unsent bytes; int32 conversion keeps the result signed when
		// sndNxt has moved past the buffer (FIN consumed a sequence).
		avail := int(int32(c.bufSeq + uint32(len(c.sndBuf)) - c.sndNxt))
		if avail <= 0 {
			break
		}
		room := wnd - inFlight
		if room <= 0 {
			break
		}
		n := avail
		if n > int(c.smss) {
			n = int(c.smss)
		}
		// A window with less room than the segment gets what fits,
		// however small: there is no sender-side silly-window avoidance.
		if n > room {
			n = room
		}
		off := int(c.sndNxt - c.bufSeq)
		payload := c.sndBuf[off : off+n]
		seg := &Segment{
			Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
			Window:  uint16(c.rcvWndSize()),
			Payload: payload,
		}
		if off+n == len(c.sndBuf) {
			seg.Flags |= FlagPSH
		}
		c.sendSegment(seg)
		// One RTT sample in flight at a time (Karn).
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttStart = c.clock().Now()
		}
		c.sndNxt += uint32(n)
		c.sndMax = seqMax(c.sndMax, c.sndNxt)
		c.probePending = false // a normal send supersedes any probe
		c.stats.BytesSent += int64(n)
		c.armRetransmit()
	}
	// FIN goes out once all data has been transmitted.
	if c.finQueued && !c.finSent && c.sndNxt == c.bufSeq+uint32(len(c.sndBuf)) {
		inFlight := c.flightSize()
		if inFlight < wnd || inFlight == 0 {
			c.sendSegment(&Segment{
				Flags: FlagFIN | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
				Window: uint16(c.rcvWndSize()),
			})
			c.finSent = true
			c.sndNxt++
			c.sndMax = seqMax(c.sndMax, c.sndNxt)
			c.armRetransmit()
		}
	}
	c.updatePersist()
}

// updatePersist arms the zero-window probe timer when data is waiting
// but the peer advertises no room, and disarms it otherwise.
func (c *Conn) updatePersist() {
	dataWaiting := int32(c.bufSeq+uint32(len(c.sndBuf))-c.sndNxt) > 0
	if c.sndWnd == 0 && dataWaiting && c.flightSize() == 0 {
		if c.persistTimer.Active() {
			return
		}
		d := persistBase << c.persistShift
		if d > persistMax {
			d = persistMax
		}
		c.persistTimer = c.clock().After(d, c.onPersist)
	} else {
		c.persistTimer.Stop()
		c.persistShift = 0
	}
}

// persistProbe sends a single byte beyond the closed window to elicit a
// fresh window advertisement.
func (c *Conn) persistProbe() {
	if c.state == StateClosed || c.sndWnd != 0 {
		return
	}
	off := int(c.sndNxt - c.bufSeq)
	if off >= len(c.sndBuf) {
		return
	}
	c.stats.PersistProbes++
	seg := &Segment{
		Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
		Window:  uint16(c.rcvWndSize()),
		Payload: c.sndBuf[off : off+1],
	}
	c.sendSegment(seg)
	c.probePending = true
	if c.persistShift < 16 {
		c.persistShift++
	}
	c.updatePersist()
}

// sendSegment stamps ports, counts, and emits a segment.
func (c *Conn) sendSegment(seg *Segment) {
	seg.SrcPort = c.tuple.localPort
	seg.DstPort = c.tuple.remotePort
	c.stats.SegmentsSent++
	c.stack.transmit(c.tuple.localAddr, c.tuple.remoteAddr, seg)
}

// --- retransmission --------------------------------------------------------

func (c *Conn) armRetransmit() {
	if c.rtxTimer.Active() {
		return
	}
	d := c.rto << c.backoff
	if d > MaxRTO {
		d = MaxRTO
	}
	c.rtxTimer = c.clock().After(d, c.onRTO)
}

// onRetransmitTimeout implements the congestion response the thesis
// §2.2/§2.3 describes: the loss is presumed to be congestion, so the
// window collapses and the timeout backs off exponentially — exactly
// the misbehaviour a wireless link provokes.
func (c *Conn) onRetransmitTimeout() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	outstanding := c.flightSize()
	if outstanding == 0 && !c.handshakeInProgress() {
		return
	}
	c.stats.Timeouts++
	c.stats.Retransmits++
	if c.backoff < 12 {
		c.backoff++
	}
	// Karn: a retransmission invalidates the pending RTT sample.
	c.rttPending = false
	switch c.state {
	case StateSynSent:
		c.sendSegment(&Segment{Flags: FlagSYN, Seq: c.iss, Window: uint16(c.rcvWndSize()), MSS: MSS})
	case StateSynRcvd:
		c.sendSegment(&Segment{Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt, Window: uint16(c.rcvWndSize()), MSS: MSS})
	default:
		half := outstanding / 2
		if half < 2*int(c.smss) {
			half = 2 * int(c.smss)
		}
		c.ssthresh = half
		c.cwnd = int(c.smss)
		c.inRecovery = false
		c.dupAcks = 0
		// Go-back-N: roll the send point back to the oldest unacked
		// byte so slow start retransmits the whole lost window with
		// ACK clocking (classic BSD behaviour). Without this, a
		// multi-segment loss would crawl back at one segment per RTO.
		if SeqLT(c.sndUna, c.sndNxt) {
			c.sndNxt = c.sndUna
			if c.finSent {
				c.finSent = false // the FIN is resent after the data
			}
			c.probePending = false
		}
		c.output()
	}
	c.armRetransmit()
}

// retransmitOne resends the oldest unacknowledged segment.
func (c *Conn) retransmitOne() {
	c.stack.mib.RetransSegs++
	off := int(c.sndUna - c.bufSeq)
	dataLen := len(c.sndBuf) - off
	if dataLen > int(c.smss) {
		dataLen = int(c.smss)
	}
	if dataLen > 0 {
		seg := &Segment{
			Flags: FlagACK, Seq: c.sndUna, Ack: c.rcvNxt,
			Window:  uint16(c.rcvWndSize()),
			Payload: c.sndBuf[off : off+dataLen],
		}
		c.sendSegment(seg)
		c.stats.BytesSent += int64(dataLen)
		return
	}
	if c.finSent && SeqLE(c.sndUna, c.sndNxt-1) {
		c.sendSegment(&Segment{
			Flags: FlagFIN | FlagACK, Seq: c.sndNxt - 1, Ack: c.rcvNxt,
			Window: uint16(c.rcvWndSize()),
		})
	}
}

func (c *Conn) handshakeInProgress() bool {
	return c.state == StateSynSent || c.state == StateSynRcvd
}

// --- RTT estimation ---------------------------------------------------------

func (c *Conn) sampleRTT(ack uint32) {
	if !c.rttPending || SeqLT(ack, c.rttSeq) {
		return
	}
	c.rttPending = false
	m := c.clock().Now().Sub(c.rttStart)
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	c.rto = rto
}

// --- input path --------------------------------------------------------------

func (c *Conn) handle(seg *Segment) {
	c.stats.SegmentsRcvd++
	if seg.Flags&FlagRST != 0 {
		c.handleRST(seg)
		return
	}
	switch c.state {
	case StateSynSent:
		c.handleSynSent(seg)
		return
	case StateClosed:
		return
	}
	// States with synchronized sequence numbers.
	c.handleSynchronized(seg)
}

func (c *Conn) handleRST(seg *Segment) {
	switch c.state {
	case StateSynSent:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.teardown(ErrReset)
		}
	default:
		// Acceptable if within window; be permissive for simplicity.
		c.teardown(ErrReset)
	}
}

func (c *Conn) handleSynSent(seg *Segment) {
	if seg.Flags&FlagSYN == 0 || seg.Flags&FlagACK == 0 || seg.Ack != c.sndNxt {
		return
	}
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.sndUna = seg.Ack
	c.bufSeq = c.sndUna
	c.sndWnd = int(seg.Window)
	c.sndWL1 = seg.Seq
	c.sndWL2 = seg.Ack
	if seg.MSS != 0 && seg.MSS < c.smss {
		c.smss = seg.MSS
	}
	c.cwnd = int(c.smss) * initialCwndSegs
	c.rtxTimer.Stop()
	c.backoff = 0
	c.state = StateEstablished
	if c.finQueued {
		// Close was called while connecting; finish the handshake,
		// drain the queued data, then FIN.
		c.state = StateFinWait1
	}
	c.sendSegment(&Segment{Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: uint16(c.rcvWndSize())})
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.output()
}

func (c *Conn) handleSynchronized(seg *Segment) {
	// Sequence acceptability (simplified RFC 793 check): some overlap
	// with the receive window, or a zero-length segment at rcvNxt.
	if !c.acceptable(seg) {
		// Out-of-window: re-ACK to resynchronize the peer.
		c.sendACK()
		return
	}
	if seg.Flags&FlagSYN != 0 && c.state == StateSynRcvd && seg.Seq == c.irs {
		// Duplicate SYN: peer missed our SYN-ACK; resend it.
		c.sendSegment(&Segment{Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt, Window: uint16(c.rcvWndSize()), MSS: MSS})
		return
	}
	if seg.Flags&FlagACK == 0 {
		return
	}
	if c.state == StateSynRcvd {
		if seg.Ack != c.sndNxt {
			return
		}
		c.state = StateEstablished
		c.sndUna = seg.Ack
		c.bufSeq = c.sndUna
		c.sndWnd = int(seg.Window)
		c.sndWL1 = seg.Seq
		c.sndWL2 = seg.Ack
		c.rtxTimer.Stop()
		c.backoff = 0
		if c.acceptFn != nil {
			fn := c.acceptFn
			c.acceptFn = nil
			fn(c)
		}
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		// Fall through: the ACK may carry data.
	}
	c.processACK(seg)
	c.processPayload(seg)
	c.output()
}

func (c *Conn) acceptable(seg *Segment) bool {
	segLen := seg.SeqLen()
	wnd := uint32(c.rcvWndSize())
	if segLen == 0 {
		if wnd == 0 {
			return seg.Seq == c.rcvNxt
		}
		return SeqLE(c.rcvNxt, seg.Seq) && SeqLT(seg.Seq, c.rcvNxt+wnd) ||
			SeqLE(seg.Seq, c.rcvNxt) && SeqLE(c.rcvNxt, seg.Seq+segLen)
	}
	if wnd == 0 {
		return false
	}
	// Any overlap with [rcvNxt, rcvNxt+wnd).
	startsInWindow := SeqLE(c.rcvNxt, seg.Seq) && SeqLT(seg.Seq, c.rcvNxt+wnd)
	endsInWindow := SeqLT(c.rcvNxt, seg.Seq+segLen) && SeqLE(seg.Seq+segLen, c.rcvNxt+wnd)
	coversWindow := SeqLE(seg.Seq, c.rcvNxt) && SeqLT(c.rcvNxt, seg.Seq+segLen)
	return startsInWindow || endsInWindow || coversWindow
}

func (c *Conn) processACK(seg *Segment) {
	ack := seg.Ack
	if c.probePending && ack == c.sndNxt+1 {
		// The receiver accepted our one-byte zero-window probe; the
		// byte now officially occupies sequence space.
		c.sndNxt++
		c.sndMax = seqMax(c.sndMax, c.sndNxt)
		c.probePending = false
		c.stats.BytesSent++
	}
	if SeqLT(c.sndMax, ack) {
		// ACK for data we never sent: ignore after re-ACKing.
		c.stats.AcksAboveSndMax++
		c.sendACK()
		return
	}
	if SeqLT(c.sndUna, ack) {
		c.advanceUna(seg)
		return
	}
	// ack <= sndUna: possible duplicate.
	if ack == c.sndUna && len(seg.Payload) == 0 &&
		c.flightSize() > 0 && int(seg.Window) == c.sndWnd {
		c.stats.DupAcksRcvd++
		c.dupAcks++
		switch {
		case c.dupAcks == 3 && !c.inRecovery:
			c.enterFastRecovery()
		case c.inRecovery:
			c.cwnd += int(c.smss) // inflate
		}
	}
	c.maybeUpdateWindow(seg)
}

func (c *Conn) advanceUna(seg *Segment) {
	ack := seg.Ack
	acked := int(ack - c.sndUna)
	c.sampleRTT(ack)
	c.backoff = 0

	// Consume SYN/FIN sequence space.
	dataAcked := acked
	if c.state == StateSynRcvd || (c.sndUna == c.iss && SeqLT(c.iss, ack)) {
		dataAcked-- // SYN
	}
	finAcked := false
	if c.finSent && ack == c.sndMax && ack == c.sndNxt {
		dataAcked--
		finAcked = true
	}
	if dataAcked > 0 {
		c.stats.BytesAcked += int64(dataAcked)
		off := int(c.sndUna - c.bufSeq)
		drop := off + dataAcked
		if drop > len(c.sndBuf) {
			drop = len(c.sndBuf)
		}
		c.sndBuf = c.sndBuf[drop:]
	}
	c.sndUna = ack
	c.bufSeq = ack
	// After a go-back-N rollback an ACK may land beyond the rolled-back
	// send point (the receiver had the data all along); keep sndNxt on
	// or ahead of una.
	if SeqLT(c.sndNxt, c.sndUna) {
		c.sndNxt = c.sndUna
	}

	if c.inRecovery {
		if SeqLT(ack, c.recover) {
			// NewReno partial ACK: the next hole is lost too.
			c.retransmitOne()
			c.cwnd -= acked
			if c.cwnd < int(c.smss) {
				c.cwnd = int(c.smss)
			}
			c.cwnd += int(c.smss)
			c.dupAcks = 0
		} else {
			c.inRecovery = false
			c.dupAcks = 0
			c.cwnd = c.ssthresh
		}
	} else {
		c.dupAcks = 0
		if c.cwnd < c.ssthresh {
			c.cwnd += int(c.smss) // slow start
		} else {
			add := int(c.smss) * int(c.smss) / c.cwnd // congestion avoidance
			if add == 0 {
				add = 1
			}
			c.cwnd += add
		}
	}

	c.maybeUpdateWindow(seg)

	c.rtxTimer.Stop()
	if c.flightSize() > 0 {
		c.armRetransmit()
	}

	if finAcked {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.teardown(nil)
		}
	}
}

func (c *Conn) maybeUpdateWindow(seg *Segment) {
	if SeqLT(c.sndWL1, seg.Seq) ||
		(c.sndWL1 == seg.Seq && SeqLE(c.sndWL2, seg.Ack)) {
		if int(seg.Window) == 0 && c.sndWnd != 0 {
			c.stats.ZeroWindowSeen++
		}
		c.sndWnd = int(seg.Window)
		c.sndWL1 = seg.Seq
		c.sndWL2 = seg.Ack
		c.updatePersist()
	}
}

func (c *Conn) enterFastRecovery() {
	c.stats.FastRetransmits++
	c.stats.Retransmits++
	half := c.flightSize() / 2
	if half < 2*int(c.smss) {
		half = 2 * int(c.smss)
	}
	c.ssthresh = half
	c.recover = c.sndNxt
	c.inRecovery = true
	c.retransmitOne()
	c.cwnd = c.ssthresh + 3*int(c.smss)
	// Karn: retransmission invalidates the pending sample.
	c.rttPending = false
}

// processPayload handles the data and FIN portions of a segment.
func (c *Conn) processPayload(seg *Segment) {
	data := seg.Payload
	seq := seg.Seq
	fin := seg.Flags&FlagFIN != 0

	if len(data) == 0 && !fin {
		return
	}
	// Trim data lying before rcvNxt (retransmitted overlap).
	if SeqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if uint32(len(data)) <= skip {
			if !(fin && seq+seg.SeqLen()-1 == c.rcvNxt) {
				// Entirely old data: re-ACK.
				if len(data) > 0 || fin {
					c.sendACK()
				}
				return
			}
			data = nil
		} else {
			data = data[skip:]
		}
		seq = c.rcvNxt
	}

	if seq == c.rcvNxt {
		c.deliver(data, fin)
		c.drainOOO()
		c.sendACK()
		c.checkFinStates()
		return
	}
	// Out of order: queue and send a duplicate ACK (the signal fast
	// retransmit — and the snoop filter — listen for).
	c.insertOOO(oooSeg{seq: seq, data: append([]byte(nil), data...), fin: fin})
	c.sendACK()
}

func (c *Conn) deliver(data []byte, fin bool) {
	if len(data) > 0 {
		c.rcvNxt += uint32(len(data))
		c.stats.BytesReceived += int64(len(data))
		if c.OnData != nil {
			c.OnData(data)
		}
	}
	if fin && !c.finRcvd {
		c.finRcvd = true
		c.rcvNxt++
	}
}

func (c *Conn) insertOOO(s oooSeg) {
	i := sort.Search(len(c.oooSegs), func(i int) bool {
		return SeqLE(s.seq, c.oooSegs[i].seq)
	})
	if i < len(c.oooSegs) && c.oooSegs[i].seq == s.seq {
		if len(s.data) > len(c.oooSegs[i].data) {
			c.oooSegs[i] = s
		}
		return
	}
	c.oooSegs = append(c.oooSegs, oooSeg{})
	copy(c.oooSegs[i+1:], c.oooSegs[i:])
	c.oooSegs[i] = s
}

func (c *Conn) drainOOO() {
	for len(c.oooSegs) > 0 {
		s := c.oooSegs[0]
		if SeqLT(c.rcvNxt, s.seq) {
			return
		}
		c.oooSegs = c.oooSegs[1:]
		data := s.data
		if SeqLT(s.seq, c.rcvNxt) {
			skip := c.rcvNxt - s.seq
			if uint32(len(data)) <= skip {
				if s.fin && SeqLE(s.seq+uint32(len(s.data)), c.rcvNxt) {
					c.deliver(nil, true)
				}
				continue
			}
			data = data[skip:]
		}
		c.deliver(data, s.fin)
	}
}

// checkFinStates advances the close handshake after the peer's FIN has
// been consumed by deliver.
func (c *Conn) checkFinStates() {
	if !c.finRcvd {
		return
	}
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		if c.OnRemoteClose != nil {
			c.OnRemoteClose()
		}
	case StateFinWait1:
		// FIN arrived together with (or before) the ACK of ours.
		if c.finSent && c.sndUna == c.sndNxt {
			c.enterTimeWait()
		} else {
			c.state = StateClosing
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
}

func (c *Conn) sendACK() {
	c.sendSegment(&Segment{
		Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt,
		Window: uint16(c.rcvWndSize()),
	})
}

func (c *Conn) enterTimeWait() {
	if c.state == StateTimeWait {
		return
	}
	c.state = StateTimeWait
	c.rtxTimer.Stop()
	c.persistTimer.Stop()
	c.twTimer = c.clock().After(timeWait, c.onTimeWait)
}

// teardown releases all connection state and fires OnClose.
func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	if err != nil {
		switch c.state {
		case StateEstablished, StateCloseWait:
			c.stack.mib.EstabResets++
		case StateSynSent, StateSynRcvd:
			c.stack.mib.AttemptFails++
		}
	}
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.persistTimer.Stop()
	c.twTimer.Stop()
	delete(c.stack.conns, c.tuple)
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

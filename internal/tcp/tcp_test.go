package tcp_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// pair wires two hosts together over one link and attaches stacks.
type pair struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	a, b   *netsim.Node
	sa, sb *tcp.Stack
	link   *netsim.Link
}

func newPair(seed int64, cfg netsim.LinkConfig, tcpCfg tcp.Config) *pair {
	s := sim.NewScheduler(seed)
	n := netsim.New(s)
	a := n.AddNode("a")
	b := n.AddNode("b")
	link := n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), cfg)
	p := &pair{sched: s, net: n, a: a, b: b, link: link}
	p.sa = tcp.NewStack(a, tcpCfg)
	p.sb = tcp.NewStack(b, tcpCfg)
	a.RegisterProto(ip.ProtoTCP, func(h ip.Header, payload, raw []byte, in *netsim.Iface) {
		p.sa.Deliver(h.Src, h.Dst, payload)
	})
	b.RegisterProto(ip.ProtoTCP, func(h ip.Header, payload, raw []byte, in *netsim.Iface) {
		p.sb.Deliver(h.Src, h.Dst, payload)
	})
	return p
}

// transfer sends payload from a to b over a fresh connection, runs the
// simulation to completion, and returns what b received plus the two
// connections.
func (p *pair) transfer(t *testing.T, payload []byte, deadline time.Duration) ([]byte, *tcp.Conn, *tcp.Conn) {
	t.Helper()
	var rcvd bytes.Buffer
	var server *tcp.Conn
	_, err := p.sb.Listen(80, func(c *tcp.Conn) {
		server = c
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := p.sa.Connect(p.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() {
		if err := client.Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
		client.Close()
	}
	p.sched.RunFor(deadline)
	return rcvd.Bytes(), client, server
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	p := newPair(1, netsim.LinkConfig{}, tcp.Config{})
	got, client, server := p.transfer(t, []byte("hello, wireless world"), 5*time.Second)
	if string(got) != "hello, wireless world" {
		t.Fatalf("received %q", got)
	}
	if client.State() != tcp.StateClosed {
		t.Fatalf("client state = %v (FIN not acked?)", client.State())
	}
	if server == nil {
		t.Fatal("server conn never accepted")
	}
}

func TestBulkTransferLossless(t *testing.T) {
	p := newPair(2, netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond}, tcp.Config{})
	payload := make([]byte, 500_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, client, _ := p.transfer(t, payload, 60*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	st := client.Stats()
	if st.Retransmits != 0 {
		t.Errorf("lossless link saw %d retransmits", st.Retransmits)
	}
}

func TestBulkTransferConstrainedLink(t *testing.T) {
	// 1 Mb/s, small queue: congestion drops force retransmission, but
	// everything must still arrive intact and in order.
	p := newPair(3, netsim.LinkConfig{Bandwidth: 1e6, Delay: 10 * time.Millisecond, QueueLen: 8}, tcp.Config{})
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	got, client, _ := p.transfer(t, payload, 120*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	// Goodput sanity: 300KB over 1Mb/s is 2.4s minimum; the transfer
	// should not have taken more than ~10x that even with drops.
	if client.Stats().Timeouts > 50 {
		t.Errorf("excessive timeouts: %d", client.Stats().Timeouts)
	}
}

func TestTransferOverLossyLink(t *testing.T) {
	p := newPair(4, netsim.LinkConfig{
		Bandwidth: 2e6, Delay: 20 * time.Millisecond,
		Loss: netsim.Bernoulli{P: 0.05}, QueueLen: 100,
	}, tcp.Config{})
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	got, client, _ := p.transfer(t, payload, 300*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted over lossy link: got %d want %d bytes", len(got), len(payload))
	}
	if client.Stats().Retransmits == 0 {
		t.Error("5% loss produced zero retransmits?")
	}
}

func TestFastRetransmitTriggers(t *testing.T) {
	// Drop exactly one data packet mid-stream with a hook; the stream
	// behind it generates dup ACKs and fast retransmit recovers without
	// an RTO.
	p := newPair(5, netsim.LinkConfig{Bandwidth: 10e6, Delay: 5 * time.Millisecond}, tcp.Config{})
	dropped := false
	dataSegs := 0
	p.b.SetHook(func(raw []byte, in *netsim.Iface) [][]byte {
		h, payload, err := ip.Unmarshal(raw)
		if err != nil || h.Protocol != ip.ProtoTCP {
			return [][]byte{raw}
		}
		seg, err := tcp.Unmarshal(payload)
		if err != nil || len(seg.Payload) == 0 {
			return [][]byte{raw}
		}
		dataSegs++
		// Drop the 20th data segment: by then cwnd is large enough
		// that plenty of later segments follow to generate dup ACKs.
		if dataSegs == 20 && !dropped {
			dropped = true
			return nil
		}
		return [][]byte{raw}
	})
	payload := make([]byte, 120_000)
	got, client, _ := p.transfer(t, payload, 30*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %d bytes", len(got))
	}
	if !dropped {
		t.Skip("hook never matched a segment to drop")
	}
	st := client.Stats()
	if st.FastRetransmits == 0 {
		t.Errorf("expected a fast retransmit, stats: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Errorf("single loss should not need an RTO, saw %d", st.Timeouts)
	}
}

func TestRTOOnTotalBlackout(t *testing.T) {
	p := newPair(6, netsim.LinkConfig{Bandwidth: 1e6, Delay: 5 * time.Millisecond}, tcp.Config{})
	payload := make([]byte, 200_000)
	var rcvd bytes.Buffer
	p.sb.Listen(80, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() { client.Write(payload) }
	// Let it get started, then black out the link for 3 seconds.
	p.sched.RunFor(100 * time.Millisecond)
	p.link.SetDown(true)
	p.sched.RunFor(3 * time.Second)
	p.link.SetDown(false)
	p.sched.RunFor(60 * time.Second)
	if rcvd.Len() != len(payload) {
		t.Fatalf("received %d of %d bytes after blackout", rcvd.Len(), len(payload))
	}
	if client.Stats().Timeouts == 0 {
		t.Error("blackout produced no RTO")
	}
	if client.CongestionWindow() > 64*1024 {
		t.Errorf("cwnd = %d", client.CongestionWindow())
	}
}

func TestExponentialBackoffDuringBlackout(t *testing.T) {
	p := newPair(7, netsim.LinkConfig{}, tcp.Config{})
	p.sb.Listen(80, func(c *tcp.Conn) {})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() {
		// Cut the link the instant the handshake completes so the
		// whole write is stranded in flight.
		p.link.SetDown(true)
		client.Write(make([]byte, 1000))
	}
	p.sched.RunFor(30 * time.Second)
	st := client.Stats()
	// With doubling from ~200ms-1s, 30s of blackout allows only a
	// handful of timeouts; linear retry would give dozens.
	if st.Timeouts == 0 {
		t.Fatal("no timeouts during blackout")
	}
	if st.Timeouts > 10 {
		t.Fatalf("timeouts = %d; backoff not exponential", st.Timeouts)
	}
}

func TestZeroWindowPersist(t *testing.T) {
	// Receiver advertises a zero window by having a tiny buffer that
	// we fill via a hook rewriting the advertised window to zero.
	p := newPair(8, netsim.LinkConfig{}, tcp.Config{})
	var rcvd bytes.Buffer
	p.sb.Listen(80, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	client, _ := p.sa.Connect(p.b.Addr(), 80)

	// Hook on host a rewrites ACKs from b: window := 0 for a while.
	stall := true
	p.a.SetHook(func(raw []byte, in *netsim.Iface) [][]byte {
		if !stall {
			return [][]byte{raw}
		}
		h, payload, err := ip.Unmarshal(raw)
		if err != nil || h.Protocol != ip.ProtoTCP {
			return [][]byte{raw}
		}
		seg, err := tcp.Unmarshal(payload)
		if err != nil || seg.Flags&tcp.FlagSYN != 0 {
			return [][]byte{raw}
		}
		seg.Window = 0
		out, _ := h.Marshal(seg.Marshal(h.Src, h.Dst))
		return [][]byte{out}
	})

	client.OnEstablished = func() { client.Write(make([]byte, 10_000)) }
	p.sched.RunFor(5 * time.Second)
	if client.Stats().ZeroWindowSeen == 0 {
		t.Fatal("sender never saw the zero window")
	}
	if client.Stats().PersistProbes == 0 {
		t.Fatal("sender never sent persist probes")
	}
	midway := rcvd.Len()
	stall = false
	p.sched.RunFor(30 * time.Second)
	if rcvd.Len() != 10_000 {
		t.Fatalf("received %d bytes after window reopened (was %d mid-stall)", rcvd.Len(), midway)
	}
}

func TestCleanCloseBothDirections(t *testing.T) {
	p := newPair(9, netsim.LinkConfig{}, tcp.Config{})
	var serverConn *tcp.Conn
	serverSawEOF := false
	p.sb.Listen(80, func(c *tcp.Conn) {
		serverConn = c
		c.OnRemoteClose = func() {
			serverSawEOF = true
			c.Write([]byte("goodbye"))
			c.Close()
		}
	})
	var clientGot bytes.Buffer
	clientClosed := false
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnData = func(b []byte) { clientGot.Write(b) }
	client.OnClose = func(err error) {
		if err != nil {
			t.Errorf("client close error: %v", err)
		}
		clientClosed = true
	}
	client.OnEstablished = func() {
		client.Write([]byte("hello"))
		client.Close()
	}
	p.sched.RunFor(30 * time.Second)
	if !serverSawEOF {
		t.Fatal("server never saw client FIN")
	}
	if clientGot.String() != "goodbye" {
		t.Fatalf("client got %q", clientGot.String())
	}
	if !clientClosed {
		t.Fatal("client never fully closed")
	}
	if serverConn.State() != tcp.StateClosed {
		t.Fatalf("server state = %v", serverConn.State())
	}
	if p.sa.ConnCount()+p.sb.ConnCount() != 0 {
		t.Fatalf("connections leaked: %d + %d", p.sa.ConnCount(), p.sb.ConnCount())
	}
}

func TestRSTToUnknownPort(t *testing.T) {
	p := newPair(10, netsim.LinkConfig{}, tcp.Config{})
	client, _ := p.sa.Connect(p.b.Addr(), 9999) // nothing listening
	var closeErr error
	gotClose := false
	client.OnClose = func(err error) { closeErr = err; gotClose = true }
	p.sched.RunFor(5 * time.Second)
	if !gotClose {
		t.Fatal("client never notified of refused connection")
	}
	if closeErr == nil {
		t.Fatal("refused connection reported clean close")
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(11, netsim.LinkConfig{}, tcp.Config{})
	var server *tcp.Conn
	var serverErr error
	serverClosed := false
	p.sb.Listen(80, func(c *tcp.Conn) {
		server = c
		c.OnClose = func(err error) { serverErr = err; serverClosed = true }
	})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() {
		client.Write([]byte("data"))
	}
	p.sched.RunFor(time.Second)
	client.Abort()
	p.sched.RunFor(time.Second)
	if server == nil || !serverClosed {
		t.Fatal("server did not observe the reset")
	}
	if serverErr == nil {
		t.Fatal("server close error is nil, want reset")
	}
}

func TestMSSNegotiation(t *testing.T) {
	sched := sim.NewScheduler(12)
	n := netsim.New(sched)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, ip.MustParseAddr("10.0.0.1"), b, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	sa := tcp.NewStack(a, tcp.Config{})
	sb := tcp.NewStack(b, tcp.Config{})
	a.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sa.Deliver(h.Src, h.Dst, p) })
	b.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sb.Deliver(h.Src, h.Dst, p) })
	maxSeen := 0
	sb.OnSegment = func(send bool, src, dst ip.Addr, seg *tcp.Segment) {
		// The hook runs before marshalling, so b's SYN-ACK offers 536.
		if send && seg.Flags&tcp.FlagSYN != 0 {
			seg.MSS = 536
		}
		if !send && len(seg.Payload) > maxSeen {
			maxSeen = len(seg.Payload)
		}
	}
	sb.Listen(80, func(c *tcp.Conn) {})
	client, _ := sa.Connect(b.Addr(), 80)
	client.OnEstablished = func() { client.Write(make([]byte, 20_000)) }
	sched.RunFor(10 * time.Second)
	if client.MSS() != 536 {
		t.Fatalf("negotiated MSS = %d, want 536", client.MSS())
	}
	if maxSeen > 536 {
		t.Fatalf("segment of %d bytes exceeded negotiated MSS", maxSeen)
	}
}

// TestOnSegmentHookSeesCopies checks the trace hook from the receive
// side: it sees every segment the stack takes in, and a stack with
// hooks set on both ends carries the same conversation — same bytes
// delivered, same sender counters — as one without, over a lossy link.
func TestOnSegmentHookSeesCopies(t *testing.T) {
	cfg := netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond, Loss: netsim.Bernoulli{P: 0.03}, QueueLen: 100}
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i*13 + i/251)
	}
	plain := newPair(21, cfg, tcp.Config{})
	want, wantClient, _ := plain.transfer(t, payload, 120*time.Second)
	if !bytes.Equal(want, payload) {
		t.Fatalf("without hooks: received %d of %d bytes intact", len(want), len(payload))
	}

	traced := newPair(21, cfg, tcp.Config{})
	seen, sent, seenBytes := 0, 0, 0
	traced.sb.OnSegment = func(send bool, _, _ ip.Addr, seg *tcp.Segment) {
		if !send {
			seen++
			seenBytes += len(seg.Payload)
		}
	}
	traced.sa.OnSegment = func(send bool, _, _ ip.Addr, _ *tcp.Segment) {
		if send {
			sent++
		}
	}
	got, client, _ := traced.transfer(t, payload, 120*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("with hooks: received %d bytes, %d without, or different ones", len(got), len(want))
	}
	if in := traced.sb.MIB().InSegs; int64(seen) != in {
		t.Fatalf("the receive hook saw %d segments, the stack took in %d", seen, in)
	}
	if seenBytes < len(payload) {
		t.Fatalf("the receive hook saw %d payload bytes of %d", seenBytes, len(payload))
	}
	if st := client.Stats(); st != wantClient.Stats() || int64(sent) != st.SegmentsSent {
		t.Fatalf("with hooks the sender counted %+v and the hook saw %d sent; without hooks %+v",
			st, sent, wantClient.Stats())
	}
}

// TestAckAboveSndMaxCounted: an ACK for sequence space the sender never
// sent is counted in AcksAboveSndMax, answered with one re-ACK and
// otherwise ignored — nothing more is acknowledged, and the connection
// carries on to an intact transfer.
func TestAckAboveSndMaxCounted(t *testing.T) {
	p := newPair(3, netsim.LinkConfig{Bandwidth: 10e6, Delay: time.Millisecond}, tcp.Config{})
	var last tcp.Segment // the last segment b sent
	p.sb.OnSegment = func(send bool, _, _ ip.Addr, seg *tcp.Segment) {
		if send {
			last = *seg
		}
	}
	var rcvd bytes.Buffer
	if _, err := p.sb.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	client, err := p.sa.Connect(p.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	first, second := bytes.Repeat([]byte("a"), 10_000), bytes.Repeat([]byte("b"), 10_000)
	client.OnEstablished = func() { client.Write(first) }
	p.sched.RunFor(time.Second)
	before := client.Stats()
	if before.BytesAcked != int64(len(first)) || before.AcksAboveSndMax != 0 {
		t.Fatalf("before the forged ACK: %+v", before)
	}

	forged := tcp.Segment{SrcPort: 80, DstPort: client.LocalPort(), Seq: last.Seq,
		Ack: last.Ack + 1000, Flags: tcp.FlagACK, Window: last.Window}
	p.sa.Deliver(p.b.Addr(), p.a.Addr(), forged.Marshal(p.b.Addr(), p.a.Addr()))
	p.sched.RunFor(time.Second)
	want := before
	want.AcksAboveSndMax++
	want.SegmentsRcvd++
	want.SegmentsSent++ // the re-ACK
	if got := client.Stats(); got != want {
		t.Fatalf("after the forged ACK the sender counted\n%+v, want\n%+v", got, want)
	}

	client.Write(second)
	client.Close()
	p.sched.RunFor(5 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), append(first, second...)) {
		t.Fatalf("received %d of %d bytes intact", rcvd.Len(), len(first)+len(second))
	}
}

func TestFlowControlRespectsWindow(t *testing.T) {
	// Small receive window: the sender must never have more than the
	// advertised window outstanding.
	p := newPair(13, netsim.LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Millisecond}, tcp.Config{RcvWnd: 8192})
	maxOutstanding := 0
	var rcvd bytes.Buffer
	p.sb.Listen(80, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() { client.Write(make([]byte, 100_000)) }
	// Sample outstanding data over time.
	var sample func()
	const horizon = 60 * time.Second
	sample = func() {
		if fl := flight(client); fl > maxOutstanding {
			maxOutstanding = fl
		}
		if p.sched.Now() < sim.Time(horizon) {
			p.sched.After(10*time.Millisecond, sample)
		}
	}
	p.sched.After(10*time.Millisecond, sample)
	p.sched.RunFor(horizon)
	if rcvd.Len() != 100_000 {
		t.Fatalf("received %d bytes", rcvd.Len())
	}
	if maxOutstanding > 8192 {
		t.Fatalf("outstanding %d exceeded advertised window 8192", maxOutstanding)
	}
}

// flight computes sent-but-unacked payload via stats.
func flight(c *tcp.Conn) int {
	st := c.Stats()
	return int(st.BytesSent - st.BytesAcked) // overcounts with rexmits; fine as a bound check helper
}

func TestSlowStartGrowth(t *testing.T) {
	p := newPair(14, netsim.LinkConfig{Bandwidth: 100e6, Delay: 20 * time.Millisecond}, tcp.Config{})
	p.sb.Listen(80, func(c *tcp.Conn) {})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() { client.Write(make([]byte, 200_000)) }
	initial := client.CongestionWindow()
	p.sched.RunFor(500 * time.Millisecond)
	if client.CongestionWindow() <= initial*2 {
		t.Fatalf("cwnd grew from %d only to %d in 0.5s of slow start",
			initial, client.CongestionWindow())
	}
}

func TestRTTEstimation(t *testing.T) {
	p := newPair(15, netsim.LinkConfig{Bandwidth: 100e6, Delay: 30 * time.Millisecond}, tcp.Config{})
	p.sb.Listen(80, func(c *tcp.Conn) {})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnEstablished = func() { client.Write(make([]byte, 50_000)) }
	p.sched.RunFor(5 * time.Second)
	srtt := client.SRTT()
	if srtt < 55*time.Millisecond || srtt > 150*time.Millisecond {
		t.Fatalf("SRTT = %v, want ≈ 60ms+", srtt)
	}
	if client.RTO() < client.SRTT() {
		t.Fatalf("RTO %v < SRTT %v", client.RTO(), client.SRTT())
	}
}

func TestSimultaneousTransferBothDirections(t *testing.T) {
	p := newPair(16, netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond}, tcp.Config{})
	up := make([]byte, 80_000)
	down := make([]byte, 80_000)
	for i := range up {
		up[i] = byte(i)
		down[i] = byte(i * 3)
	}
	var gotUp, gotDown bytes.Buffer
	p.sb.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { gotUp.Write(b) }
		c.Write(down)
	})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	client.OnData = func(b []byte) { gotDown.Write(b) }
	client.OnEstablished = func() { client.Write(up) }
	p.sched.RunFor(120 * time.Second)
	if !bytes.Equal(gotUp.Bytes(), up) {
		t.Fatalf("upstream corrupted: %d bytes", gotUp.Len())
	}
	if !bytes.Equal(gotDown.Bytes(), down) {
		t.Fatalf("downstream corrupted: %d bytes", gotDown.Len())
	}
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	seg := tcp.Segment{
		SrcPort: 7, DstPort: 1169,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 8760,
		MSS: 1460, Payload: []byte("payload bytes"),
	}
	src, dst := ip.MustParseAddr("11.11.10.99"), ip.MustParseAddr("11.11.10.10")
	raw := seg.Marshal(src, dst)
	if !tcp.VerifyChecksum(src, dst, raw) {
		t.Fatal("checksum invalid after marshal")
	}
	got, err := tcp.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != seg.Seq || got.Ack != seg.Ack || got.MSS != 1460 ||
		got.Window != 8760 || !bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Corruption must be detected.
	raw[len(raw)-1] ^= 0xff
	if tcp.VerifyChecksum(src, dst, raw) {
		t.Fatal("corrupted segment passed checksum")
	}
}

func TestSegmentFlagString(t *testing.T) {
	s := tcp.Segment{Flags: tcp.FlagSYN | tcp.FlagACK}
	if s.FlagString() != "SA" {
		t.Fatalf("FlagString = %q", s.FlagString())
	}
	s.Flags = 0
	if s.FlagString() != "." {
		t.Fatalf("FlagString = %q", s.FlagString())
	}
}

// Property: for random payload sizes and loss rates up to 10%, the
// receiver always gets exactly the sent bytes.
func TestTransferIntegrityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(seed int64, sizeK uint8, lossPct uint8) bool {
		size := (int(sizeK)%64 + 1) * 1024
		loss := float64(lossPct%10) / 100
		p := newPair(seed, netsim.LinkConfig{
			Bandwidth: 5e6, Delay: 10 * time.Millisecond,
			Loss: netsim.Bernoulli{P: loss}, QueueLen: 1000,
		}, tcp.Config{})
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(int(seed) + i)
		}
		var rcvd bytes.Buffer
		p.sb.Listen(80, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
		client, err := p.sa.Connect(p.b.Addr(), 80)
		if err != nil {
			return false
		}
		client.OnEstablished = func() { client.Write(payload) }
		p.sched.RunFor(600 * time.Second)
		if !bytes.Equal(rcvd.Bytes(), payload) {
			t.Logf("seed=%d size=%d loss=%.2f: got %d bytes want %d",
				seed, size, loss, rcvd.Len(), size)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectToSelfPortReuse(t *testing.T) {
	p := newPair(17, netsim.LinkConfig{}, tcp.Config{})
	p.sb.Listen(80, func(c *tcp.Conn) {})
	seen := map[uint16]bool{}
	for i := 0; i < 5; i++ {
		c, err := p.sa.Connect(p.b.Addr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.LocalPort()] {
			t.Fatalf("ephemeral port %d reused while live", c.LocalPort())
		}
		seen[c.LocalPort()] = true
	}
}

func TestListenDuplicatePortFails(t *testing.T) {
	p := newPair(18, netsim.LinkConfig{}, tcp.Config{})
	if _, err := p.sb.Listen(80, func(*tcp.Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sb.Listen(80, func(*tcp.Conn) {}); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	p := newPair(19, netsim.LinkConfig{}, tcp.Config{})
	p.sb.Listen(80, func(c *tcp.Conn) {})
	client, _ := p.sa.Connect(p.b.Addr(), 80)
	established := false
	client.OnEstablished = func() {
		established = true
		client.Close()
		if err := client.Write([]byte("x")); err == nil {
			t.Error("write after close succeeded")
		}
	}
	p.sched.RunFor(5 * time.Second)
	if !established {
		t.Fatal("never established")
	}
}

func ExampleSegment_String() {
	s := tcp.Segment{Seq: 1000, Ack: 500, Window: 8760, Flags: tcp.FlagACK | tcp.FlagPSH, Payload: make([]byte, 1000)}
	fmt.Println(s.String())
	// Output: 1000:2000(1000) ack 500 win 8760 [PA]
}

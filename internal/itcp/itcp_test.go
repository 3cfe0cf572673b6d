package itcp_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/itcp"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// newITCPRig builds the reference topology — wired, proxy host, mobile
// — over the given wireless link with the relay armed on port 5001 of
// the proxy host and no filter loaded.
func newITCPRig(wireless netsim.LinkConfig) (*core.System, *itcp.Relay) {
	sys := core.NewSystem(core.Config{Seed: 3, Wireless: wireless})
	return sys, sys.ArmRelay(sys.Site, 5001)
}

func TestSplitConnectionRelaysData(t *testing.T) {
	sys, relay := newITCPRig(netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond})
	var rcvd bytes.Buffer
	sys.MobileTCP.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	client, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
	closed := false
	client.OnClose = func(error) { closed = true }
	client.OnEstablished = func() { client.Write(payload); client.Close() }
	sys.Sched.RunFor(120 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), payload) {
		t.Fatalf("relayed %d of %d bytes", rcvd.Len(), len(payload))
	}
	if !closed {
		t.Fatal("wired side never closed")
	}
	if relay.Stats.Accepted != 1 {
		t.Fatalf("accepted = %d", relay.Stats.Accepted)
	}
	if got := relay.Stranded(); got != 0 {
		t.Fatalf("healthy relay stranded %d bytes", got)
	}
}

func TestSplitConnectionSurvivesWirelessLoss(t *testing.T) {
	sys, _ := newITCPRig(netsim.LinkConfig{Bandwidth: 2e6, Delay: 20 * time.Millisecond,
		Loss: netsim.Bernoulli{P: 0.08}, QueueLen: 200})
	var rcvd bytes.Buffer
	sys.MobileTCP.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	payload := make([]byte, 150_000)
	client, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
	client.OnEstablished = func() { client.Write(payload) }
	sys.Sched.RunFor(300 * time.Second)
	if rcvd.Len() != len(payload) {
		t.Fatalf("relayed %d of %d bytes over lossy link", rcvd.Len(), len(payload))
	}
	// The wired sender must have been insulated: its connection never
	// saw the wireless losses (at most a handful of retransmits on the
	// clean wire).
	if client.Stats().Retransmits > 2 {
		t.Fatalf("wired sender saw wireless loss: %+v", client.Stats())
	}
}

func TestEndToEndSemanticsViolation(t *testing.T) {
	// The §5.1.2 hazard: the wired sender's data is fully acknowledged
	// by the proxy; then the mobile disconnects permanently. The
	// sender believes everything was delivered; it was not.
	sys, relay := newITCPRig(netsim.LinkConfig{Bandwidth: 500e3, Delay: 20 * time.Millisecond})
	var rcvd bytes.Buffer
	sys.MobileTCP.Listen(5001, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
	payload := make([]byte, 200_000)
	client, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
	senderDone := false
	client.OnClose = func(err error) {
		if err == nil {
			senderDone = true
		}
	}
	client.OnEstablished = func() { client.Write(payload); client.Close() }

	// The wired half drains into the relay at 100 Mb/s almost
	// instantly; the 500 kb/s wireless half lags far behind. Cut the
	// wireless link for good mid-transfer.
	sys.Sched.RunFor(1 * time.Second)
	sys.Wireless.SetDown(true)
	sys.Sched.RunFor(180 * time.Second)

	if !senderDone {
		t.Fatalf("wired sender did not complete cleanly (stats %+v)", client.Stats())
	}
	if rcvd.Len() >= len(payload) {
		t.Fatal("mobile somehow received everything")
	}
	stranded := relay.Stranded()
	if stranded == 0 {
		t.Fatal("no stranded bytes recorded despite permanent loss")
	}
	t.Logf("sender completed cleanly; mobile got %d of %d bytes; %d bytes stranded at the proxy",
		rcvd.Len(), len(payload), stranded)
}

func TestEchoThroughRelay(t *testing.T) {
	// Reverse-direction data flows too (mobile responses).
	sys, _ := newITCPRig(netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond})
	sys.MobileTCP.Listen(5001, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { c.Write(bytes.ToUpper(b)) }
	})
	var got bytes.Buffer
	client, _ := sys.WiredTCP.Connect(core.MobileAddr, 5001)
	client.OnData = func(b []byte) { got.Write(b) }
	client.OnEstablished = func() { client.Write([]byte("hello relay")) }
	sys.Sched.RunFor(10 * time.Second)
	if got.String() != "HELLO RELAY" {
		t.Fatalf("echo = %q", got.String())
	}
}

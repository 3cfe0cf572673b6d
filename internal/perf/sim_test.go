package perf

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestSchedulerEventZeroAlloc gates the recycled scheduler: with a
// thousand far-future timers pending, scheduling one event and running
// it takes a released record off the free list and puts it back, so in
// steady state it allocates nothing.
func TestSchedulerEventZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run it on an uninstrumented binary")
	}
	s := sim.NewScheduler(1)
	idle := func() {}
	for i := 0; i < 1000; i++ {
		s.After(time.Hour+time.Duration(i), idle)
	}
	fired := 0
	fire := func() { fired++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Nanosecond, fire)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("After + Step allocates %.2f times per event, want 0", allocs)
	}
	pending := 0
	for s.Step() {
		pending++
	}
	if fired != 1001 || pending != 1000 {
		t.Fatalf("fired %d events with %d pending, want 1001 with 1000", fired, pending)
	}
}

// TestNetsimHopZeroAlloc gates the link hop: a hop is one scheduler
// event, the arrival, a recycled flight on a recycled scheduler record
// (the end of serialisation is a slot in the direction's ring of ends,
// not an event), and the datagram is a buffer off the network's free
// list that goes back once its handler returns, so in steady state a
// datagram crossing a link allocates nothing.
func TestNetsimHopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run it on an uninstrumented binary")
	}
	s := sim.NewScheduler(1)
	nw := netsim.New(s)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	addrA, addrB := ip.MustParseAddr("10.9.0.1"), ip.MustParseAddr("10.9.0.2")
	nw.Connect(a, addrA, b, addrB, netsim.LinkConfig{Bandwidth: 10e9})
	const proto, burst = 253, 32
	got := 0
	b.RegisterProto(proto, func(ip.Header, []byte, []byte, *netsim.Iface) { got++ })
	payload := pattern(64)
	perRun := testing.AllocsPerRun(100, func() {
		for i := 0; i < burst; i++ {
			a.SendIP(addrB, proto, payload)
		}
		s.Run()
	})
	if perHop := perRun / burst; perHop > 0 {
		t.Fatalf("a link hop allocates %.2f times, want 0", perHop)
	}
	if got != 101*burst {
		t.Fatalf("%d datagrams delivered, want %d", got, 101*burst)
	}
	for i := 0; i < burst; i++ {
		a.SendIP(addrB, proto, payload)
	}
	events := 0
	for s.Step() {
		events++
	}
	if events != burst {
		t.Fatalf("a burst of %d datagrams runs %d events, want one arrival each", burst, events)
	}
}

// TestIntactTransferBytesPerByte gates the bulk path of a transfer:
// Conn.Write keeps the payload as its send buffer, an intact
// Transfer's Received is the payload itself, every segment is
// marshalled into a datagram buffer off the network's free list, and
// the proxy host forwards it in place. A 4 MB transfer across the
// default topology so allocates only bookkeeping and the free list's
// high-water mark — at most 0.5 bytes per payload byte. A fresh
// datagram per segment and a forwarding copy per hop cost two more.
func TestIntactTransferBytesPerByte(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run it on an uninstrumented binary")
	}
	payload := pattern(4 << 20)
	sys := core.NewSystem(core.Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.CheckedTransfer("4 MB", payload, 7, 5001, 120*time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(payload))
	t.Logf("%.2f bytes allocated per payload byte", perByte)
	if perByte > 0.5 {
		t.Fatalf("an intact 4 MB transfer allocates %.2f bytes per payload byte, want at most 0.5", perByte)
	}
}

// TestTransferSegmentAllocs gates the TCP segment path: a sent segment
// and a received one are built and decoded on the stack (only the
// OnSegment copy escapes, and no hook is set here), marshalled into a
// datagram off the network's free list and carried by zero-allocation
// hops. A 4 MB transfer across the default topology so allocates only
// per-connection bookkeeping and the free lists' high-water marks — at
// most 0.25 heap allocations per segment the client sends. A Segment
// that escapes on send and on receive costs two more.
func TestTransferSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: run it on an uninstrumented binary")
	}
	payload := pattern(4 << 20)
	sys := core.NewSystem(core.Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sys.CheckedTransfer("4 MB", payload, 7, 5001, 120*time.Second)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	segs := res.Client.Stats().SegmentsSent
	perSeg := float64(after.Mallocs-before.Mallocs) / float64(segs)
	t.Logf("%.2f allocations per segment sent (%d segments)", perSeg, segs)
	if perSeg > 0.25 {
		t.Fatalf("a 4 MB transfer makes %.2f allocations per segment sent, want at most 0.25", perSeg)
	}
}

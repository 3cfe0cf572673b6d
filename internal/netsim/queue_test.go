package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestQueueRuleAtSerialisationEnd pins when a packet leaves the
// transmit queue: a packet whose serialisation ends at T is gone for
// anything offered at T, whichever event makes the offer. Three
// 1000-byte datagrams fill a QueueLen-3 link at 1 Mb/s (8 ms each,
// ends at 8, 16 and 24 ms). An offer at 4 ms finds the queue full; an
// offer at exactly 8 ms — from an event scheduled before the burst or
// after it — finds two queued and is taken; so is one at 20 ms.
func TestQueueRuleAtSerialisationEnd(t *testing.T) {
	const ms = sim.Time(time.Millisecond)
	for _, tc := range []struct {
		name  string
		early bool // the 8 ms offer's event is scheduled before the burst
	}{{"tie-scheduled-before-burst", true}, {"tie-scheduled-after-burst", false}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, a, b := twoHosts(t, LinkConfig{Bandwidth: 1e6, QueueLen: 3})
			l := a.Ifaces()[0].Link()
			var order []byte
			b.RegisterProto(ip.ProtoUDP, func(_ ip.Header, payload, _ []byte, _ *Iface) {
				order = append(order, payload[0])
			})
			offer := func(id byte, queuedBefore, queuedAfter int) {
				t.Helper()
				if q := l.QueuedAB(); q != queuedBefore {
					t.Errorf("at %v before offering %d: QueuedAB = %d, want %d", s.Now(), id, q, queuedBefore)
				}
				payload := make([]byte, 1000-ip.HeaderLen)
				payload[0] = id
				a.SendIP(b.Addr(), ip.ProtoUDP, payload)
				if q := l.QueuedAB(); q != queuedAfter {
					t.Errorf("at %v after offering %d: QueuedAB = %d, want %d", s.Now(), id, q, queuedAfter)
				}
			}
			tie := func() { offer(4, 2, 3) }
			if tc.early {
				s.At(8*ms, tie)
			}
			offer(0, 0, 1)
			offer(1, 1, 2)
			offer(2, 2, 3)
			if !tc.early {
				s.At(8*ms, tie)
			}
			s.At(4*ms, func() { offer(3, 3, 3) }) // before the first end: dropped
			s.At(20*ms, func() { offer(5, 2, 3) })
			s.At(25*ms, func() {
				if q := l.QueuedAB(); q != 2 {
					t.Errorf("at 25ms: QueuedAB = %d, want 2", q)
				}
			})
			s.Run()
			st := l.StatsAB()
			if st.QueueDrops != 1 || st.PeakQueue != 3 || l.QueuedAB() != 0 {
				t.Errorf("QueueDrops %d PeakQueue %d QueuedAB %d, want 1, 3 and 0",
					st.QueueDrops, st.PeakQueue, l.QueuedAB())
			}
			if string(order) != "\x00\x01\x02\x04\x05" {
				t.Errorf("delivery order %v, want [0 1 2 4 5]", order)
			}
		})
	}
}

// queueOffer is one datagram handed to the link under test, with the
// occupancy the link reported just before and just after.
type queueOffer struct {
	at            sim.Time
	size          int
	before, after int
}

// checkQueueScript decodes script into a link — bandwidth, QueueLen,
// optional jitter — and a run of offers, clock advances and single
// steps, some offers made at once and some from scheduled events. It
// then replays the offers it recorded through a reference model that
// keeps every accepted serialisation end and counts the ones after
// each offer's time, and fails where the link's occupancy, PeakQueue,
// QueueDrops or delivered count differ from the model's. Sizes and
// advances are multiples of 10 µs of serialisation, so ties between an
// offer and an end are common.
func checkQueueScript(t *testing.T, script []byte) {
	t.Helper()
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	bw := int64(4e6) << (next() % 3) // 4, 8 or 16 Mb/s
	qlen := 1 + int(next()%8)
	cfg := LinkConfig{Bandwidth: bw, Delay: 50 * time.Microsecond, QueueLen: qlen}
	if j := next(); j%2 == 1 {
		cfg.Jitter = time.Duration(j/2+1) * time.Microsecond
	}
	s, _, a, b := twoHosts(t, cfg)
	l := a.Ifaces()[0].Link()
	delivered := 0
	b.RegisterProto(ip.ProtoUDP, func(ip.Header, []byte, []byte, *Iface) { delivered++ })
	var offers []queueOffer
	send := func(size int) {
		o := queueOffer{at: s.Now(), size: size, before: l.QueuedAB()}
		a.SendIP(b.Addr(), ip.ProtoUDP, make([]byte, size-ip.HeaderLen))
		o.after = l.QueuedAB()
		offers = append(offers, o)
	}
	const step = sim.Time(10 * time.Microsecond)
	for len(script) > 0 {
		op := next()
		arg := int(op >> 2)
		size := 20 * (1 + arg%8) // 20..160 bytes
		switch op % 4 {
		case 0:
			send(size)
		case 1:
			s.RunUntil(s.Now() + sim.Time(arg)*step)
		case 2:
			s.At(s.Now()+sim.Time(arg/8)*step, func() { send(size) })
		case 3:
			s.Step()
		}
	}
	s.Run()

	var ends []sim.Time // accepted serialisation ends, oldest first
	var last sim.Time
	peak, drops := 0, int64(0)
	for i, o := range offers {
		q := 0
		for _, e := range ends {
			if e > o.at {
				q++
			}
		}
		if o.before != q {
			t.Fatalf("offer %d at %v: link reports %d queued before it, the model %d", i, o.at, o.before, q)
		}
		if q >= qlen {
			drops++
		} else {
			last = max(last, o.at) + sim.Time(int64(o.size)*8*int64(time.Second)/bw)
			ends = append(ends, last)
			q++
			peak = max(peak, q)
		}
		if o.after != q {
			t.Fatalf("offer %d at %v: link reports %d queued after it, the model %d", i, o.at, o.after, q)
		}
	}
	st := l.StatsAB()
	if st.PeakQueue != peak || st.QueueDrops != drops {
		t.Fatalf("PeakQueue %d QueueDrops %d, the model %d and %d", st.PeakQueue, st.QueueDrops, peak, drops)
	}
	if delivered != len(ends) || st.DeliveredPkts != int64(len(ends)) || l.QueuedAB() != 0 {
		t.Fatalf("%d delivered (%d counted) with %d queued after the run, the model accepted %d",
			delivered, st.DeliveredPkts, l.QueuedAB(), len(ends))
	}
}

// TestLinkQueueMatchesModel runs random scripts through
// checkQueueScript.
func TestLinkQueueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		script := make([]byte, rng.Intn(200))
		rng.Read(script)
		checkQueueScript(t, script)
	}
}

func FuzzLinkQueue(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 5, 0})         // a burst past QueueLen 3, then an advance
	f.Add([]byte{1, 1, 0, 0, 9, 0, 66, 3})              // offers exactly at serialisation ends, directly and from an event
	f.Add([]byte{2, 7, 9, 0, 4, 8, 12, 3, 3, 1, 33, 0}) // jitter, single steps
	f.Fuzz(checkQueueScript)
}

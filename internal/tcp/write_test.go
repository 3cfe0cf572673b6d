package tcp_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// guarded returns n bytes of fill(i) in a slice whose backing array
// runs guard bytes past its length, plus a copy of the whole array: a
// Write that kept p and later appended in place would overwrite the
// guard, one that wrote into p would change its bytes.
func guarded(n, guard int, fill func(i int) byte) (p, before []byte) {
	buf := make([]byte, n+guard)
	for i := range buf {
		buf[i] = fill(i)
	}
	return buf[:n], bytes.Clone(buf)
}

// TestWriteOwnershipAcrossRetransmits pins Write's ownership contract:
// the connection keeps a Write on an empty send buffer as the buffer
// itself, copies one that lands behind queued data, and never writes
// into a caller's slice — while loss makes retransmissions re-read the
// send buffer. The second Write lands after the first is partly
// acknowledged, the third after the send buffer has fully drained. The
// second is smaller than the guard behind the first, so appending it
// into the first's backing array would not need to grow it.
func TestWriteOwnershipAcrossRetransmits(t *testing.T) {
	p := newPair(29, netsim.LinkConfig{
		Bandwidth: 2e6, Delay: 10 * time.Millisecond,
		Loss: netsim.Bernoulli{P: 0.05}, QueueLen: 100,
	}, tcp.Config{})
	p1, before1 := guarded(60_000, 4096, func(i int) byte { return byte(i * 7) })
	p2, before2 := guarded(2_000, 4096, func(i int) byte { return byte(i*11 + 3) })
	p3, before3 := guarded(30_000, 4096, func(i int) byte { return byte(i*13 + 5) })

	var rcvd bytes.Buffer
	p.sb.Listen(80, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvd.Write(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	client, err := p.sa.Connect(p.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() {
		if err := client.Write(p1); err != nil {
			t.Errorf("write p1: %v", err)
		}
	}
	// Poll on virtual time for the two moments the later Writes need.
	step := 0
	var poll func()
	poll = func() {
		st := client.Stats()
		switch {
		case step == 0 && st.BytesAcked > 0 && client.BufferedOut() > len(p1)/2:
			if err := client.Write(p2); err != nil {
				t.Errorf("write p2: %v", err)
			}
			step++
		case step == 1 && client.BufferedOut() == 0:
			if err := client.Write(p3); err != nil {
				t.Errorf("write p3: %v", err)
			}
			client.Close()
			step++
		}
		if step < 2 {
			p.sched.After(time.Millisecond, poll)
		}
	}
	p.sched.After(time.Millisecond, poll)
	p.sched.RunFor(600 * time.Second)

	if step != 2 {
		t.Fatalf("reached write step %d of 2", step)
	}
	want := append(append(append([]byte(nil), p1...), p2...), p3...)
	if !bytes.Equal(rcvd.Bytes(), want) {
		t.Fatalf("peer received %d bytes, not p1‖p2‖p3 (%d bytes)", rcvd.Len(), len(want))
	}
	if client.Stats().Retransmits == 0 {
		t.Fatal("the lossy link produced no retransmission: the send buffer was never re-read")
	}
	for i, c := range []struct{ p, before []byte }{{p1, before1}, {p2, before2}, {p3, before3}} {
		if !bytes.Equal(c.p[:cap(c.p)], c.before) {
			t.Errorf("p%d or the bytes behind it changed after Write", i+1)
		}
	}
}

// FuzzConnWriteSplits splits a payload into Writes of fuzzed sizes at
// fuzzed virtual times over a lossy link, so some land on an empty send
// buffer (kept as is) and some behind queued data (copied). The peer
// must receive exactly the concatenation, and no Write's slice — nor
// the guard bytes behind it in its backing array — may change.
func FuzzConnWriteSplits(f *testing.F) {
	f.Add(int64(1), bytes.Repeat([]byte("comma"), 4000), []byte{0, 10, 1, 0, 255, 50, 3, 3})
	f.Add(int64(2), []byte("x"), []byte{})
	f.Add(int64(3), bytes.Repeat([]byte{0xa5}, 30_000), []byte{200, 0, 200, 0, 200, 200, 1, 255})
	f.Add(int64(4), bytes.Repeat([]byte("wireless"), 2000), []byte{100, 0, 1, 0, 0, 40, 1, 0})

	f.Fuzz(func(t *testing.T, seed int64, payload, plan []byte) {
		if len(payload) > 64<<10 || len(plan) > 64 {
			return
		}
		p := newPair(seed, netsim.LinkConfig{
			Bandwidth: 2e6, Delay: 5 * time.Millisecond,
			Loss: netsim.Bernoulli{P: 0.03}, QueueLen: 100,
		}, tcp.Config{})
		var rcvd bytes.Buffer
		p.sb.Listen(80, func(c *tcp.Conn) { c.OnData = func(b []byte) { rcvd.Write(b) } })
		client, err := p.sa.Connect(p.b.Addr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		// Each pair of plan bytes is one Write: a size in units of 64
		// bytes and a delay in milliseconds after the previous one. What
		// the plan leaves over goes in a last Write, followed by Close.
		type write struct{ p, before []byte }
		var writes []*write
		at, off := time.Duration(0), 0
		queue := func(n int, last bool) {
			n = min(n, len(payload)-off)
			part := payload[off : off+n]
			off += n
			w := &write{}
			w.p, w.before = guarded(n, 64, func(i int) byte {
				if i < len(part) {
					return part[i]
				}
				return 0xee
			})
			writes = append(writes, w)
			p.sched.After(at, func() {
				if err := client.Write(w.p); err != nil {
					t.Errorf("write %d bytes at %v: %v", len(w.p), p.sched.Now(), err)
				}
				if last {
					client.Close()
				}
			})
		}
		for i := 0; i+1 < len(plan); i += 2 {
			at += time.Duration(plan[i+1]) * time.Millisecond
			queue(int(plan[i])*64, false)
		}
		queue(len(payload), true)
		p.sched.RunFor(600 * time.Second)

		if !bytes.Equal(rcvd.Bytes(), payload) {
			t.Fatalf("peer received %d bytes, want the %d-byte concatenation", rcvd.Len(), len(payload))
		}
		for i, w := range writes {
			if !bytes.Equal(w.p[:cap(w.p)], w.before) {
				t.Fatalf("write %d: its slice or the bytes behind it changed", i)
			}
		}
	})
}

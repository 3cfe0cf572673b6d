// Package workload provides the application traffic generators the
// experiments drive through the proxy: bulk transfers, interactive
// request/response exchanges (the telnet-style traffic the thesis's
// prioritization service protects), and constant-bit-rate media.
package workload

import (
	"bytes"
	"time"

	"repro/internal/ip"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Bulk streams a fixed payload over a fresh TCP connection and keeps
// the pipe full until done.
type Bulk struct {
	Conn  *tcp.Conn
	Total int

	received int
	doneAt   sim.Time
}

// StartBulk connects from client to addr:port and pushes total bytes
// of deterministic data. The server side must already be listening and
// counting. Returns the workload handle for progress queries.
func StartBulk(client *tcp.Stack, addr ip.Addr, port uint16, total int) (*Bulk, error) {
	b := &Bulk{Total: total, doneAt: -1}
	conn, err := client.Connect(addr, port)
	if err != nil {
		return nil, err
	}
	b.Conn = conn
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	conn.OnEstablished = func() { conn.Write(payload) }
	return b, nil
}

// Interactive is a request/response workload: the client sends a small
// request every interval and measures the time until the (small)
// response returns — a proxy for interactive session latency.
type Interactive struct {
	Conn *tcp.Conn

	// Latencies holds one round-trip per completed exchange.
	Latencies []time.Duration

	sched       *sim.Scheduler
	interval    time.Duration
	reqSize     int
	sentAt      sim.Time
	outstanding bool
	stopped     bool
}

// StartInteractive connects to an echo-style server at addr:port (the
// server must respond to each request with a same-sized reply; see
// ServeEcho) and begins issuing requests.
func StartInteractive(sched *sim.Scheduler, client *tcp.Stack, addr ip.Addr, port uint16,
	interval time.Duration, reqSize int) (*Interactive, error) {
	iw := &Interactive{sched: sched, interval: interval, reqSize: reqSize}
	conn, err := client.Connect(addr, port)
	if err != nil {
		return nil, err
	}
	iw.Conn = conn
	pending := 0
	conn.OnData = func(b []byte) {
		pending += len(b)
		if iw.outstanding && pending >= iw.reqSize {
			pending -= iw.reqSize
			iw.outstanding = false
			iw.Latencies = append(iw.Latencies, sched.Now().Sub(iw.sentAt))
		}
	}
	var tick func()
	tick = func() {
		if iw.stopped || conn.State() != tcp.StateEstablished {
			if !iw.stopped && conn.State() != tcp.StateClosed {
				sched.After(iw.interval, tick)
			}
			return
		}
		if !iw.outstanding {
			iw.outstanding = true
			iw.sentAt = sched.Now()
			conn.Write(make([]byte, iw.reqSize))
		}
		sched.After(iw.interval, tick)
	}
	conn.OnEstablished = func() { sched.After(0, tick) }
	return iw, nil
}

// Stop ends the request loop.
func (iw *Interactive) Stop() { iw.stopped = true }

// Mean returns the average exchange latency (0 if none completed).
func (iw *Interactive) Mean() time.Duration {
	if len(iw.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range iw.Latencies {
		sum += l
	}
	return sum / time.Duration(len(iw.Latencies))
}

// Max returns the worst exchange latency.
func (iw *Interactive) Max() time.Duration {
	var m time.Duration
	for _, l := range iw.Latencies {
		if l > m {
			m = l
		}
	}
	return m
}

// ServeEcho installs a server on stack:port that echoes every byte
// back — the peer for Interactive. It writes a copy: Write keeps its
// slice, and OnData's b is valid only during the call.
func ServeEcho(stack *tcp.Stack, port uint16) error {
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { c.Write(bytes.Clone(b)) }
		c.OnRemoteClose = func() { c.Close() }
	})
	return err
}

// ServeSink installs a server on stack:port that consumes and counts.
func ServeSink(stack *tcp.Stack, port uint16, count *int) error {
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { *count += len(b) }
		c.OnRemoteClose = func() { c.Close() }
	})
	return err
}

// CBRMedia pushes a layered media stream at a constant frame rate over
// UDP (the §8.3.2 workload).
type CBRMedia struct {
	Sent int // frames sent (all layers)
}

// StartCBRMedia emits `frames` media instants of `layers` layers at
// the given frame interval from srcPort to dst:dstPort.
func StartCBRMedia(sched *sim.Scheduler, stack *udp.Stack, dst ip.Addr, srcPort, dstPort uint16,
	layers, baseBytes, frames int, interval time.Duration, seed int64) *CBRMedia {
	w := &CBRMedia{}
	src := media.NewLayeredSource(layers, baseBytes, seed)
	n := 0
	var tick func()
	tick = func() {
		for _, f := range src.Next() {
			stack.Send(srcPort, dst, dstPort, media.MarshalFrame(f))
			w.Sent++
		}
		n++
		if n < frames {
			sched.After(interval, tick)
		}
	}
	sched.After(0, tick)
	return w
}

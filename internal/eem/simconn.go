package eem

import (
	"fmt"
	"strings"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// DefaultPort is the TCP port EEM servers listen on.
const DefaultPort = 12001

// simConn adapts a simulated TCP connection to the protocol Conn.
type simConn struct{ c *tcp.Conn }

func (s simConn) Write(b []byte) error { return s.c.Write(b) }
func (s simConn) Close()               { s.c.Close() }

// Abort severs the connection with a reset instead of a FIN — crash
// semantics the peer can detect the moment the RST lands.
func (s simConn) Abort() { s.c.Abort() }

// OnDown implements CloseNotifier: fn fires when the underlying TCP
// connection tears down for any reason (reset, timeout, close).
func (s simConn) OnDown(fn func()) { s.c.OnClose = func(error) { fn() } }

// ServeSim exposes the server on a simulated TCP stack, one protocol
// session per accepted connection.
func ServeSim(stack *tcp.Stack, port uint16, srv *Server) error {
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		onData, onClose := srv.Accept(simConn{c})
		c.OnData = onData
		c.OnClose = func(error) { onClose() }
		c.OnRemoteClose = func() { c.Close() }
	})
	return err
}

// StartSimTicker drives the server's periodic pass from the
// simulation scheduler. It returns a stop function.
func (s *Server) StartSimTicker(sched *sim.Scheduler) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		s.Tick()
		sched.After(s.Interval, tick)
	}
	sched.After(s.Interval, tick)
	return func() { stopped = true }
}

// SimDialer returns a Dialer that connects over the simulated network
// from the given TCP stack; servers are named by dotted-quad address
// (optionally "addr:port").
func SimDialer(stack *tcp.Stack) Dialer {
	return func(server string) (Conn, func(onData func([]byte)), error) {
		addrStr := server
		port := uint16(DefaultPort)
		if i := strings.IndexByte(server, ':'); i >= 0 {
			addrStr = server[:i]
			var p int
			if _, err := fmt.Sscanf(server[i+1:], "%d", &p); err != nil || p <= 0 || p > 65535 {
				return nil, nil, fmt.Errorf("eem: bad server port in %q", server)
			}
			port = uint16(p)
		}
		addr, err := ip.ParseAddr(addrStr)
		if err != nil {
			return nil, nil, fmt.Errorf("eem: bad server address %q: %w", server, err)
		}
		c, err := stack.Connect(addr, port)
		if err != nil {
			return nil, nil, err
		}
		wire := func(onData func([]byte)) { c.OnData = onData }
		return simConn{c}, wire, nil
	}
}

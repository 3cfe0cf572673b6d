// Package daemon is what the spd and eemd daemons share: the accept
// loop that feeds real sockets into the same protocol sessions the
// simulated ports run, and the expvar debug endpoint. It lives apart
// from package core so that the simulator, the experiments and the
// benchmark link no socket code.
package daemon

import (
	"expvar"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/lines"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Accept starts a protocol session on a connection: proxy.AcceptControl
// for the SP port, eem.Server.Accept for the EEM port. Feed the
// connection's inbound bytes to onData; call onClose once it is down.
type Accept func(c lines.Conn) (onData func([]byte), onClose func())

// Run serves l through accept (see Serve) and drives rt on the calling
// goroutine until a value arrives on stop or accepting fails. Either
// way it stops rt, the only way out of rt.Run, closes l and returns:
// nil after stop, the accept error otherwise. The spd and eemd daemons
// pass the channel their SIGINT and SIGTERM arrive on, so a signal
// ends main with exit status 0.
func Run(l net.Listener, rt *sim.Realtime, accept Accept, stop <-chan os.Signal) error {
	served := make(chan error, 1)
	go func() { served <- Serve(l, rt, accept) }()
	ended := make(chan error, 1)
	go func() {
		var err error
		select {
		case <-stop:
		case err = <-served:
		}
		rt.Stop()
		ended <- err
	}()
	rt.Run(5 * time.Millisecond)
	l.Close()
	return <-ended
}

// Serve accepts connections on l until it fails and runs each one
// through accept (see ServeConn).
func Serve(l net.Listener, rt *sim.Realtime, accept Accept) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go ServeConn(conn, rt, accept)
	}
}

// ServeConn runs one real connection through the session accept
// builds, on the simulation goroutine of rt: every Read feeds onData
// inside DoSync, and onClose runs when the socket goes down. Session
// timers run on simulated time, which tracks wall time under rt, so a
// real client meets exactly the bounds a simulated one does.
func ServeConn(conn net.Conn, rt *sim.Realtime, accept Accept) {
	onData, onClose := func([]byte) {}, func() {}
	rt.DoSync(func() { onData, onClose = accept(netConn{conn}) })
	defer rt.Do(func() { onClose() })
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			rt.DoSync(func() { onData(buf[:n]) })
		}
		if err != nil {
			conn.Close()
			return
		}
	}
}

// writeTimeout bounds one write to a real client: the session writes
// on the simulation goroutine, so a peer that stops reading must not
// stall the simulated system for longer than this.
const writeTimeout = 5 * time.Second

// netConn adapts a real socket to a session's Conn. A write that fails
// closes the socket, which ends ServeConn's read loop.
type netConn struct{ c net.Conn }

func (n netConn) Write(b []byte) error {
	n.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := n.c.Write(b)
	if err != nil {
		n.c.Close()
	}
	return err
}

func (n netConn) Close() { n.c.Close() }
func (n netConn) Abort() { n.c.Close() }

// ServeDebug exposes the unified metrics snapshot through expvar (under
// "comma") on a debug HTTP port; a daemon that imports net/http/pprof
// serves its profiles there too. Simulation state is only touched
// inside DoSync, so scrapes are safe against the realtime driver.
func ServeDebug(addr string, rt *sim.Realtime, metrics *obs.Registry) {
	expvar.Publish("comma", expvar.Func(func() any {
		var snap []obs.Sample
		rt.DoSync(func() { snap = metrics.Snapshot() })
		out := make(map[string]string, len(snap))
		for _, s := range snap {
			out[s.Name] = s.Value
		}
		return out
	}))
	go func() {
		log.Printf("debug HTTP (expvar, pprof) on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("debug HTTP: %v", err)
		}
	}()
}

package daemon_test

import (
	"bytes"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/daemon"
	"repro/internal/eem"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// simulatedReply sends line to the simulated SP port of a fresh system
// and returns everything the port answered.
func simulatedReply(t *testing.T, line string) []byte {
	t.Helper()
	sys := core.NewSystem(core.Config{})
	conn, err := sys.WiredTCP.Connect(core.ProxyCtrlAddr, proxy.ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	var resp []byte
	conn.OnData = func(b []byte) { resp = append(resp, b...) }
	conn.OnEstablished = func() { conn.Write([]byte(line)) }
	sys.Sched.RunFor(2 * time.Second)
	return resp
}

// readN reads exactly n bytes from c or fails the test.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("reading %d bytes: %v (got %q)", n, err, buf)
	}
	return buf
}

// TestDaemonControlMatchesSimulatedPort drives the accept loop the spd
// daemon runs — a real connection read into the SP session on the
// realtime driver — and checks that it answers as the simulated port
// does and enforces the same line bound.
func TestDaemonControlMatchesSimulatedPort(t *testing.T) {
	want := simulatedReply(t, "help\n")
	if !bytes.HasPrefix(want, []byte("commands:")) {
		t.Fatalf("simulated port help: %q", want)
	}

	sys := core.NewSystem(core.Config{})
	rt := sim.NewRealtime(sys.Sched)
	go rt.Run(time.Millisecond)
	defer rt.Stop()
	client, server := net.Pipe()
	defer client.Close()
	go daemon.ServeConn(server, rt, proxy.AcceptControl(sys.Sched, sys.Proxy.Exec, nil))

	if _, err := client.Write([]byte("help\n")); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, client, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("daemon help %q, simulated port %q", got, want)
	}

	long := append(bytes.Repeat([]byte("A"), proxy.MaxControlLine+1), '\n')
	if _, err := client.Write(long); err != nil {
		t.Fatal(err)
	}
	diag := "error: command line exceeds 4096 bytes\n"
	if got := string(readN(t, client, len(diag))); got != diag {
		t.Fatalf("over-long line answered %q, want %q", got, diag)
	}
	// The session lives on after a framed over-long line.
	if _, err := client.Write([]byte("help\n")); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, client, len(want)); !strings.HasPrefix(string(got), "commands:") {
		t.Fatalf("help after over-long line: %q", got)
	}
}

// TestRunStopsOnSignal drives the loop the spd and eemd daemons run
// on a real listener: a connection is served, and a signal on the stop
// channel ends the realtime driver's Run, closes the listener and
// returns nil within a bound.
func TestRunStopsOnSignal(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	rt := sim.NewRealtime(sys.Sched)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	ran := make(chan error, 1)
	go func() { ran <- daemon.Run(l, rt, proxy.AcceptControl(sys.Sched, sys.Proxy.Exec, nil), stop) }()

	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("help\n")); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, client, len("commands:")); string(got) != "commands:" {
		t.Fatalf("help answered %q", got)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after a signal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5 s of the signal")
	}
	if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Run returned")
	}
}

// TestRunReturnsAcceptError: a listener that fails stops the driver
// too, and Run returns the failure.
func TestRunReturnsAcceptError(t *testing.T) {
	rt := sim.NewRealtime(sim.NewScheduler(1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	ran := make(chan error, 1)
	go func() { ran <- daemon.Run(l, rt, nil, nil) }()
	select {
	case err := <-ran:
		if err == nil {
			t.Fatal("Run on a closed listener returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5 s of the accept failure")
	}
}

// TestEEMFullCatalogueUpdate pins eem.MaxLine against the largest
// legitimate message: a client registered to every variable of the
// proxy host at every interface index still receives its periodic
// update, and the catalogue listing still arrives whole.
func TestEEMFullCatalogueUpdate(t *testing.T) {
	sys := core.NewSystem(core.Config{EEMInterval: time.Second})
	server := core.ProxyCtrlAddr.String()
	received := 0
	dial := eem.SimDialer(sys.WiredTCP)
	cm := eem.NewComma(func(s string) (eem.Conn, func(func([]byte)), error) {
		c, wire, err := dial(s)
		return c, func(onData func([]byte)) {
			wire(func(b []byte) { received += len(b); onData(b) })
		}, err
	})

	// One region for every kind: numbers other than -1e9, non-empty
	// strings.
	always := eem.Attr{Lower: eem.LongValue(-1e9), Op: eem.NEQ}
	vars := sys.EEM.Variables()
	var ids []eem.ID
	for _, v := range vars {
		for i := 0; i <= len(sys.ProxyHost.Ifaces()); i++ {
			ids = append(ids, eem.ID{Var: v, Index: i, Server: server})
		}
	}
	inRange := 0
	for _, id := range ids {
		cm.GetValueOnce(id, func(v eem.Value, err error) {
			if in, _ := always.Matches(v); err == nil && in {
				inRange++
			}
		})
	}
	var names []string
	cm.ListVariables(server, func(ns []string, _ error) { names = ns })
	sys.Sched.RunFor(500 * time.Millisecond)
	if len(names) != len(vars) {
		t.Fatalf("var-list carried %d of %d names", len(names), len(vars))
	}

	for _, id := range ids {
		if err := cm.Register(id, always); err != nil {
			t.Fatal(err)
		}
	}
	before := received
	sys.Sched.RunFor(time.Second)
	got := 0
	for _, id := range ids {
		if _, ok := cm.GetValue(id); ok {
			got++
		}
	}
	if got == 0 || got != inRange {
		t.Fatalf("update carried %d of the %d in-range values", got, inRange)
	}
	// Headroom for further sources: the update must not be more than
	// half the bound.
	line := received - before
	if line > eem.MaxLine/2 {
		t.Fatalf("full-catalogue update is %d bytes, over half of MaxLine %d", line, eem.MaxLine)
	}
	t.Logf("full-catalogue update: %d bytes for %d registrations", line, len(ids))
}

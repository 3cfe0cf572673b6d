package proxy_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// controlRig is a minimal client ↔ SP topology with a live control
// session over simulated TCP, for exercising the session-level bounds
// (line length, UTF-8, idle deadline) that the in-process Command
// tests cannot reach. The port serves a proxy hooked on the SP node
// (proxy.New), as every simulated Site runs.
type controlRig struct {
	sched  *sim.Scheduler
	client *tcp.Conn
	reply  []byte
	closed bool
}

func newControlRig(t *testing.T) *controlRig {
	t.Helper()
	s := sim.NewScheduler(5)
	n := netsim.New(s)
	ch := n.AddNode("kati")
	sh := n.AddNode("sp")
	n.Connect(ch, ip.MustParseAddr("10.0.0.1"), sh, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	cs := tcp.NewStack(ch, tcp.Config{})
	ss := tcp.NewStack(sh, tcp.Config{})
	ch.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { cs.Deliver(h.Src, h.Dst, p) })
	sh.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { ss.Deliver(h.Src, h.Dst, p) })
	sp := proxy.New(sh, filter.NewCatalog())
	if err := proxy.ServeControl(ss, proxy.ControlPort, sp.Exec); err != nil {
		t.Fatal(err)
	}
	rig := &controlRig{sched: s}
	c, err := cs.Connect(sh.Addr(), proxy.ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	c.OnData = func(b []byte) { rig.reply = append(rig.reply, b...) }
	c.OnClose = func(error) { rig.closed = true }
	rig.client = c
	s.RunFor(time.Second)
	return rig
}

// TestControlSessionBounds is the table-driven companion to the
// strict-parse tests: each case sends raw bytes down a fresh control
// session and checks the diagnostic, whether the session survives,
// and whether a follow-up command still works.
func TestControlSessionBounds(t *testing.T) {
	cases := []struct {
		name       string
		send       []byte
		wantReply  string // substring the server must answer
		wantSever  bool   // session aborted by the server
		followUpOK bool   // a later "help" must still be served
	}{
		{
			name:       "well-formed line",
			send:       []byte("help\n"),
			wantReply:  "commands:",
			wantSever:  false,
			followUpOK: true,
		},
		{
			name:       "malformed UTF-8 rejected, session lives",
			send:       append([]byte("load \xff\xfe"), '\n'),
			wantReply:  "not valid UTF-8",
			wantSever:  false,
			followUpOK: true,
		},
		{
			name:       "CRLF framing with valid UTF-8 accepted",
			send:       []byte("help\r\n"),
			wantReply:  "commands:",
			wantSever:  false,
			followUpOK: true,
		},
		{
			name:       "over-long line rejected, session lives",
			send:       append(bytes.Repeat([]byte("A"), proxy.MaxControlLine+1000), '\n'),
			wantReply:  "exceeds",
			wantSever:  false,
			followUpOK: true,
		},
		{
			name:      "newline-less flood severed with diagnostic",
			send:      bytes.Repeat([]byte("A"), 2*proxy.MaxControlLine+1000),
			wantReply: "exceeds",
			wantSever: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newControlRig(t)
			if err := rig.client.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			rig.sched.RunFor(5 * time.Second)
			if !strings.Contains(string(rig.reply), tc.wantReply) {
				t.Fatalf("reply %q does not contain %q", rig.reply, tc.wantReply)
			}
			if rig.closed != tc.wantSever {
				t.Fatalf("session closed = %v, want %v", rig.closed, tc.wantSever)
			}
			if tc.followUpOK {
				rig.reply = nil
				if err := rig.client.Write([]byte("help\n")); err != nil {
					t.Fatal(err)
				}
				rig.sched.RunFor(5 * time.Second)
				if !strings.Contains(string(rig.reply), "commands:") {
					t.Fatalf("follow-up help not served, reply %q", rig.reply)
				}
			}
		})
	}
}

// TestControlIdleTimeout pins the per-session read deadline: a session
// that never completes a command line is severed after
// ControlIdleTimeout, and activity resets the clock.
func TestControlIdleTimeout(t *testing.T) {
	rig := newControlRig(t)

	// Activity before the deadline keeps the session alive past one
	// full timeout measured from connect.
	rig.sched.RunFor(proxy.ControlIdleTimeout / 2)
	if err := rig.client.Write([]byte("help\n")); err != nil {
		t.Fatal(err)
	}
	rig.sched.RunFor(proxy.ControlIdleTimeout*3/4 + time.Second)
	if rig.closed {
		t.Fatal("session severed despite recent activity")
	}

	// Then full idleness crosses the deadline and the server aborts.
	rig.sched.RunFor(proxy.ControlIdleTimeout)
	if !rig.closed {
		t.Fatal("idle session not severed after ControlIdleTimeout")
	}
}

package proxy

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/ip"
	"repro/internal/lines"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// ControlPort is the TCP port the SP command interface listens on
// (thesis §5.3: "a telnet session to a port (12000) on the SP
// machine").
const ControlPort = 12000

// Exec runs one SP command line on this proxy and returns its output.
// Per the thesis the interface is fail-silent: successful load prints
// the registered name, report prints its listing, and everything else
// prints nothing. Errors return a brief diagnostic (a small usability
// deviation, documented in DESIGN.md).
//
// A deployment reaches its proxies through a dataplane.Plane, whose
// Command runs the same table over the plane and emits the single
// "proxy/command" event, so the event log does not depend on the
// shard count.
func (p *Proxy) Exec(line string) string { return RunCommand(p, strings.Fields(line)) }

// FilterListing renders the loaded pool (with descriptions) and what
// the catalog could still load.
func (p *Proxy) FilterListing() string {
	var b strings.Builder
	for _, n := range p.LoadedFilters() {
		fmt.Fprintf(&b, "loaded: %s\t%s\n", n, p.pool[n].Description())
	}
	for _, n := range p.catalog.Names() {
		if _, ok := p.pool[n]; !ok {
			fmt.Fprintf(&b, "available: %s\n", n)
		}
	}
	return b.String()
}

// Bus returns the attached event bus (nil if none).
func (p *Proxy) Bus() *obs.Bus { return p.obs }

// Metrics returns the attached metrics registry (nil if none).
func (p *Proxy) Metrics() *obs.Registry { return p.metrics }

// Help is the base help line: a bare proxy has no extensions.
func (p *Proxy) Help() string { return HelpLine() }

// Control-session bounds: the control plane sits at a sensitive
// network position, so a wedged or malicious client must not be able
// to hold it by streaming newline-less bytes or parking a dead
// session.
const (
	// MaxControlLine bounds one command line (see lines.New): a longer
	// line is rejected with a diagnostic and the session lives; one
	// that runs on without a newline is severed.
	MaxControlLine = 4096
	// ControlIdleTimeout severs a session that completes no command
	// line for this long. Generous enough for a human at a telnet
	// prompt, small enough that abandoned sessions don't accumulate.
	ControlIdleTimeout = 2 * time.Minute
)

var (
	errTooLong = []byte(fmt.Sprintf("error: command line exceeds %d bytes\n", MaxControlLine))
	errUTF8    = []byte("error: command line is not valid UTF-8\n")
)

// AcceptControl returns the constructor of one SP control session:
// lines framed under MaxControlLine, each checked for UTF-8, gated by
// policy's token (nil: open) and run through command; a session that
// completes no line for ControlIdleTimeout of clock time is severed.
// Feed the connection's inbound bytes to onData and call onClose when
// it goes down. The simulated port and the spd daemon both serve
// through it.
func AcceptControl(clock *sim.Scheduler, command func(string) string, policy *ControlPolicy) func(lines.Conn) (onData func([]byte), onClose func()) {
	return func(c lines.Conn) (func([]byte), func()) {
		sess := NewControlSession(command, policy)
		var idle sim.Timer
		armIdle := func() {
			idle.Stop()
			idle = clock.After(ControlIdleTimeout, c.Abort)
		}
		armIdle()
		onData := lines.New(c, MaxControlLine, errTooLong, func(line []byte) error {
			armIdle()
			if !utf8.Valid(line) {
				return c.Write(errUTF8)
			}
			if out := sess.Exec(string(line)); out != "" {
				return c.Write([]byte(out))
			}
			return nil
		})
		return onData, func() { idle.Stop() }
	}
}

// ServeControl exposes the command interface on the given simulated
// TCP stack, one command per line, mirroring the thesis's telnet
// interface on port 12000.
func ServeControl(stack *tcp.Stack, port uint16, command func(string) string) error {
	return ServeControlWithPolicy(stack, port, command, nil)
}

// ControlPolicy restricts who may use the control interface — the
// thesis's chapter 9 concern: a proxy executes third-party filter code
// at a sensitive network position, so service control must not be open
// to arbitrary hosts.
type ControlPolicy struct {
	// AllowedPeers lists source addresses permitted to connect; empty
	// means any peer may connect.
	AllowedPeers []ip.Addr
	// Token, when non-empty, must be presented with `auth <token>`
	// before any mutating command (load/remove/add/delete/service).
	// Read-only commands (report, streams, services, help) are always
	// available to connected peers.
	Token string
}

// peerAllowed reports whether addr may open a control session.
func (cp *ControlPolicy) peerAllowed(addr ip.Addr) bool {
	if cp == nil || len(cp.AllowedPeers) == 0 {
		return true
	}
	for _, a := range cp.AllowedPeers {
		if a == addr {
			return true
		}
	}
	return false
}

// ControlSession wraps a plane's Command with the per-connection
// authentication state of a ControlPolicy.
type ControlSession struct {
	command func(string) string
	policy  *ControlPolicy
	authed  bool
}

// NewControlSession creates a session under the given policy (nil
// policy = fully open, matching the thesis's prototype).
func NewControlSession(command func(string) string, policy *ControlPolicy) *ControlSession {
	return &ControlSession{command: command, policy: policy}
}

// Exec runs one command line under the session's authentication state.
func (s *ControlSession) Exec(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	if fields[0] == "auth" {
		if s.policy == nil || s.policy.Token == "" {
			return "error: authentication not enabled\n"
		}
		if len(fields) == 2 && fields[1] == s.policy.Token {
			s.authed = true
			return ""
		}
		return "error: bad token\n"
	}
	if spec, ok := Lookup(fields[0]); ok && spec.Mutating && s.policy != nil && s.policy.Token != "" && !s.authed {
		return "error: authentication required (auth <token>)\n"
	}
	return s.command(line)
}

// ServeControlWithPolicy is ServeControl with per-peer access control
// and per-session authentication.
func ServeControlWithPolicy(stack *tcp.Stack, port uint16, command func(string) string, policy *ControlPolicy) error {
	accept := AcceptControl(stack.Clock(), command, policy)
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		if !policy.peerAllowed(c.RemoteAddr()) {
			c.Abort()
			return
		}
		onData, onClose := accept(c)
		c.OnData = onData
		c.OnRemoteClose = func() { c.Close() }
		c.OnClose = func(error) { onClose() }
	})
	return err
}

package proxy

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/cmdspec"
	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// ControlPort is the TCP port the SP command interface listens on
// (thesis §5.3: "a telnet session to a port (12000) on the SP
// machine").
const ControlPort = 12000

// Command executes one SP command line and returns its output. Per the
// thesis the interface is fail-silent: successful load prints the
// registered name, report prints its listing, and everything else
// prints nothing. Errors return a brief diagnostic (a small usability
// deviation, documented in DESIGN.md).
//
// Commands:
//
//	load <filter-lib>
//	remove <filter-lib>
//	add <filter> <srcIP> <srcPort> <dstIP> <dstPort> [args...]
//	delete <filter> <srcIP> <srcPort> <dstIP> <dstPort>
//	report [<filter>]
func (p *Proxy) Command(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	p.obs.Emit("proxy", "command", fields[0], obs.F("args", len(fields)-1))
	return p.exec(fields)
}

// Exec runs one command line without emitting the "proxy/command"
// event. The sharded data plane broadcasts a mutation by Exec-ing it
// on every shard after emitting a single command event itself, so the
// event log does not depend on the shard count.
func (p *Proxy) Exec(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	return p.exec(fields)
}

// execHandlers dispatches command names to proxy operations. The
// grammar — arity bounds, usage diagnostics, help, mutation class —
// comes from the shared cmdspec table, so this map holds only the
// semantics. Table entries without a handler here (auth, which the
// ControlSession intercepts, and plane extensions like policy) fall
// through to the unknown-command diagnostic on a bare proxy.
var execHandlers = map[string]func(p *Proxy, rest []string) string{
	"load": func(p *Proxy, rest []string) string {
		name, err := p.LoadFilter(rest[0])
		if err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return name + "\n"
	},
	"remove": func(p *Proxy, rest []string) string {
		if err := p.UnloadFilter(rest[0]); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	},
	"add": func(p *Proxy, rest []string) string {
		k, err := filter.ParseKey(rest[1:5])
		if err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		if err := p.AddFilter(rest[0], k, rest[5:]); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	},
	"delete": func(p *Proxy, rest []string) string {
		k, err := filter.ParseKey(rest[1:5])
		if err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		if err := p.DeleteFilter(rest[0], k); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	},
	// service <name> <filter[:args]>... — define a composition
	// (thesis §10.2.1's layered service abstraction).
	"service": func(p *Proxy, rest []string) string {
		if err := p.DefineService(rest[0], rest[1:]); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	},
	"unservice": func(p *Proxy, rest []string) string {
		if err := p.UndefineService(rest[0]); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	},
	"services": func(p *Proxy, rest []string) string {
		var b strings.Builder
		for _, n := range p.Services() {
			specs, _ := p.ServiceSpec(n)
			fmt.Fprintf(&b, "%s = %s\n", n, strings.Join(specs, " "))
		}
		return b.String()
	},
	"report": func(p *Proxy, rest []string) string {
		name := ""
		if len(rest) > 0 {
			name = rest[0]
		}
		out, err := p.Report(name)
		if err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return out
	},
	// filters: extension used by Kati — the loaded pool and what the
	// catalog could still load.
	"filters": func(p *Proxy, rest []string) string {
		var b strings.Builder
		for _, n := range p.LoadedFilters() {
			desc := ""
			if f, ok := p.pool[n]; ok {
				desc = "\t" + f.Description()
			}
			fmt.Fprintf(&b, "loaded: %s%s\n", n, desc)
		}
		loaded := map[string]bool{}
		for _, n := range p.LoadedFilters() {
			loaded[n] = true
		}
		for _, n := range p.Available() {
			if !loaded[n] {
				fmt.Fprintf(&b, "available: %s\n", n)
			}
		}
		return b.String()
	},
	// streams: extension used by Kati — per-stream accounting.
	"streams": func(p *Proxy, rest []string) string {
		return RenderStreams(p.Streams())
	},
	// stats: extension used by Kati — the unified metrics snapshot
	// (proxy, links, TCP stacks, EEM — whatever is registered).
	"stats": func(p *Proxy, rest []string) string {
		if p.metrics == nil {
			return "error: no metrics registry attached\n"
		}
		return p.metrics.Table("proxy statistics").String()
	},
	// events: extension used by Kati — the tail of the observability
	// event log (default last 20 events).
	"events": func(p *Proxy, rest []string) string {
		if p.obs == nil {
			return "error: no event bus attached\n"
		}
		n := 20
		if len(rest) > 0 {
			if _, err := fmt.Sscanf(rest[0], "%d", &n); err != nil {
				spec, _ := cmdspec.Lookup("events")
				return spec.UsageError()
			}
		}
		return p.obs.Tail(n)
	},
	// flows: per-flow L4 records from the flow-log analytics plane
	// (default display bound flowlog.DefaultShow).
	"flows": func(p *Proxy, rest []string) string {
		n := flowlog.DefaultShow
		if len(rest) > 0 {
			if _, err := fmt.Sscanf(rest[0], "%d", &n); err != nil {
				spec, _ := cmdspec.Lookup("flows")
				return spec.UsageError()
			}
		}
		return flowlog.Render(p.AppendFlowRecords(nil), n)
	},
	"help": func(p *Proxy, rest []string) string {
		return cmdspec.HelpLine()
	},
}

func (p *Proxy) exec(fields []string) string {
	cmd, rest := fields[0], fields[1:]
	h, ok := execHandlers[cmd]
	if !ok {
		return fmt.Sprintf("error: unknown command %q\n", cmd)
	}
	spec, _ := cmdspec.Lookup(cmd)
	if !spec.ArityOK(len(rest)) {
		return spec.UsageError()
	}
	return h(p, rest)
}

// Commander executes SP command lines — implemented by *Proxy and by
// the sharded dataplane.Plane, so the control interface (and Kati
// behind it) works unchanged against either.
type Commander interface {
	Command(line string) string
}

// Control-session bounds: the control plane sits at a sensitive
// network position, so a wedged or malicious client must not be able
// to hold it by streaming newline-less bytes or parking a dead
// session.
const (
	// MaxControlLine bounds one command line. A session that buffers
	// this much without a newline gets a clear error and is severed;
	// a framed line over the bound is rejected but the session lives.
	MaxControlLine = 4096
	// ControlIdleTimeout severs a session that completes no command
	// line for this long. Generous enough for a human at a telnet
	// prompt, small enough that abandoned sessions don't accumulate.
	ControlIdleTimeout = 2 * time.Minute
)

// serveControlConn wires the shared line framing, size bounds, UTF-8
// validation, and idle deadline of one control connection; exec runs
// each complete, validated command line.
func serveControlConn(stack *tcp.Stack, c *tcp.Conn, exec func(string) string) {
	var buf []byte
	clock := stack.Clock()
	var idle sim.Timer
	armIdle := func() {
		idle.Stop()
		idle = clock.After(ControlIdleTimeout, func() { c.Abort() })
	}
	armIdle()
	c.OnData = func(b []byte) {
		buf = append(buf, b...)
		for {
			i := indexByte(buf, '\n')
			if i < 0 {
				if len(buf) > MaxControlLine {
					// Unframed flood: no newline in sight and the
					// buffer is past the bound. Tell the client why,
					// then sever — buffering further is the DoS.
					c.Write([]byte(fmt.Sprintf("error: command line exceeds %d bytes\n", MaxControlLine)))
					idle.Stop()
					buf = nil
					c.Abort()
				}
				return
			}
			line := strings.TrimRight(string(buf[:i]), "\r")
			buf = buf[i+1:]
			armIdle()
			if len(line) > MaxControlLine {
				if err := c.Write([]byte(fmt.Sprintf("error: command line exceeds %d bytes\n", MaxControlLine))); err != nil {
					return
				}
				continue
			}
			if !utf8.ValidString(line) {
				if err := c.Write([]byte("error: command line is not valid UTF-8\n")); err != nil {
					return
				}
				continue
			}
			if out := exec(line); out != "" {
				if err := c.Write([]byte(out)); err != nil {
					return
				}
			}
		}
	}
	c.OnRemoteClose = func() { c.Close() }
	c.OnClose = func(error) { idle.Stop() }
}

// ServeControl exposes the command interface on the given simulated
// TCP stack, one command per line, mirroring the thesis's telnet
// interface on port 12000.
func ServeControl(stack *tcp.Stack, port uint16, p Commander) error {
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		serveControlConn(stack, c, p.Command)
	})
	return err
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
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

// mutating reports whether a command changes proxy state (the shared
// grammar table is authoritative).
func mutating(cmd string) bool { return cmdspec.Mutating(cmd) }

// ControlSession wraps Command with the per-connection authentication
// state of a ControlPolicy.
type ControlSession struct {
	p      Commander
	policy *ControlPolicy
	authed bool
}

// NewControlSession creates a session under the given policy (nil
// policy = fully open, matching the thesis's prototype).
func NewControlSession(p Commander, policy *ControlPolicy) *ControlSession {
	return &ControlSession{p: p, policy: policy}
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
	if s.policy != nil && s.policy.Token != "" && !s.authed && mutating(fields[0]) {
		return "error: authentication required (auth <token>)\n"
	}
	return s.p.Command(line)
}

// ServeControlWithPolicy is ServeControl with per-peer access control
// and per-session authentication.
func ServeControlWithPolicy(stack *tcp.Stack, port uint16, p Commander, policy *ControlPolicy) error {
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		if !policy.peerAllowed(c.RemoteAddr()) {
			c.Abort()
			return
		}
		sess := NewControlSession(p, policy)
		serveControlConn(stack, c, sess.Exec)
	})
	return err
}

// Package kati implements the Kati user shell of thesis chapter 7:
// the third-party monitoring and control interface to the Comma
// system. Kati connects to Service Proxies (to view streams and
// filters and to add or remove services) and to EEM servers (to watch
// execution-environment variables) — giving users, rather than
// applications, control over transparent stream services.
//
// The thesis's Kati was an X11 GUI (Figs 7.1–7.4); this implementation
// is a line-oriented shell performing the same operations: the main
// window's stream/filter views map to the `streams`, `filters`, and
// `report` commands, the Xnetload-style variable graphs to `watch`,
// and the add-service dialog to `add`.
package kati

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/eem"
	"repro/internal/proxy"
)

// SPSession is an open control connection to one service proxy.
type SPSession struct {
	send  func(line string) error
	close func()
}

// NewSPSession builds a session from transport functions.
func NewSPSession(send func(string) error, close func()) *SPSession {
	return &SPSession{send: send, close: close}
}

// SPDialer opens a control session to a service proxy at addr.
// Responses must be delivered to onReply as they arrive.
type SPDialer func(addr string, onReply func(string)) (*SPSession, error)

// Shell is the Kati command interpreter. Output is written to Out as
// it becomes available; in the simulator, run the scheduler after Exec
// to let responses arrive.
type Shell struct {
	out     io.Writer
	spDial  SPDialer
	eem     *eem.Comma
	sps     map[string]*SPSession
	current string // address of the currently selected SP
	watches map[eem.ID]bool
}

// New creates a shell writing to out, dialing proxies with spDial and
// EEM servers through cm (the comma_* client facade). Watched
// variables register with an interrupt callback that prints each
// in-region update.
func New(out io.Writer, spDial SPDialer, cm *eem.Comma) *Shell {
	return &Shell{
		out:     out,
		spDial:  spDial,
		eem:     cm,
		sps:     make(map[string]*SPSession),
		watches: make(map[eem.ID]bool),
	}
}

// Exec runs one command line.
func (sh *Shell) Exec(line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	cmd, rest := fields[0], fields[1:]
	switch cmd {
	case "help":
		sh.help()
	case "sp":
		sh.cmdSP(rest)
	case "sps":
		sh.cmdSPs()
	case "use":
		sh.cmdUse(rest)
	case "vars":
		sh.cmdVars(rest)
	case "get":
		sh.cmdGet(rest)
	case "watch":
		sh.cmdWatch(rest)
	case "unwatch":
		sh.cmdUnwatch(rest)
	case "status":
		sh.cmdStatus()
	default:
		// SP commands forward verbatim to the selected proxy; the shared
		// grammar table decides which names qualify.
		if proxy.KatiForwards(cmd) {
			sh.forward(cmd, rest)
			return
		}
		fmt.Fprintf(sh.out, "kati: unknown command %q (try help)\n", cmd)
	}
}

func (sh *Shell) help() {
	fmt.Fprint(sh.out, `kati commands:
  sp <addr[:port]>            connect to a service proxy
  sps                         list connected proxies
  use <addr>                  select the current proxy
  vars <server>               list EEM variables
  get <server> <var> [index]  poll a variable once
  watch <server> <var> <op> <lower> [upper]   register interest
  unwatch <server> <var>      deregister
  status                      show watched variables (protected data area)
  help                        this text
forwarded to the current service proxy:
`)
	fmt.Fprint(sh.out, proxy.KatiHelp())
}

func (sh *Shell) cmdSP(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(sh.out, "usage: sp <addr[:port]>")
		return
	}
	addr := args[0]
	if _, dup := sh.sps[addr]; dup {
		sh.current = addr
		fmt.Fprintf(sh.out, "kati: already connected to %s (selected)\n", addr)
		return
	}
	sess, err := sh.spDial(addr, func(reply string) {
		for _, l := range strings.Split(strings.TrimRight(reply, "\n"), "\n") {
			fmt.Fprintf(sh.out, "[%s] %s\n", addr, l)
		}
	})
	if err != nil {
		fmt.Fprintf(sh.out, "kati: connect %s: %v\n", addr, err)
		return
	}
	sh.sps[addr] = sess
	sh.current = addr
	fmt.Fprintf(sh.out, "kati: connected to service proxy %s\n", addr)
}

func (sh *Shell) cmdSPs() {
	if len(sh.sps) == 0 {
		fmt.Fprintln(sh.out, "kati: no proxies connected")
		return
	}
	var addrs []string
	for a := range sh.sps {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		mark := " "
		if a == sh.current {
			mark = "*"
		}
		fmt.Fprintf(sh.out, "%s %s\n", mark, a)
	}
}

func (sh *Shell) cmdUse(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(sh.out, "usage: use <addr>")
		return
	}
	if _, ok := sh.sps[args[0]]; !ok {
		fmt.Fprintf(sh.out, "kati: not connected to %s\n", args[0])
		return
	}
	sh.current = args[0]
}

// forward sends an SP command verbatim over the current session.
func (sh *Shell) forward(cmd string, args []string) {
	sess, ok := sh.sps[sh.current]
	if !ok {
		fmt.Fprintln(sh.out, "kati: no proxy selected (use `sp <addr>` first)")
		return
	}
	line := cmd
	if len(args) > 0 {
		line += " " + strings.Join(args, " ")
	}
	if err := sess.send(line + "\n"); err != nil {
		fmt.Fprintf(sh.out, "kati: send: %v\n", err)
	}
}

func (sh *Shell) cmdVars(args []string) {
	if sh.eem == nil {
		fmt.Fprintln(sh.out, "kati: no EEM client")
		return
	}
	if len(args) != 1 {
		fmt.Fprintln(sh.out, "usage: vars <server>")
		return
	}
	err := sh.eem.ListVariables(args[0], func(names []string) {
		fmt.Fprintf(sh.out, "[eem] %d variables at %s:\n", len(names), args[0])
		for _, n := range names {
			fmt.Fprintf(sh.out, "  %s\n", n)
		}
	})
	if err != nil {
		fmt.Fprintf(sh.out, "kati: %v\n", err)
	}
}

func (sh *Shell) cmdGet(args []string) {
	if sh.eem == nil {
		fmt.Fprintln(sh.out, "kati: no EEM client")
		return
	}
	if len(args) < 2 {
		fmt.Fprintln(sh.out, "usage: get <server> <var> [index]")
		return
	}
	id := eem.ID{Server: args[0], Var: args[1]}
	if len(args) > 2 {
		if _, err := fmt.Sscanf(args[2], "%d", &id.Index); err != nil {
			fmt.Fprintf(sh.out, "kati: bad index %q\n", args[2])
			return
		}
	}
	err := sh.eem.GetValueOnce(id, func(v eem.Value, err error) {
		if err != nil {
			fmt.Fprintf(sh.out, "[eem] %s: %v\n", id, err)
			return
		}
		fmt.Fprintf(sh.out, "[eem] %s = %s\n", id, v)
	})
	if err != nil {
		fmt.Fprintf(sh.out, "kati: %v\n", err)
	}
}

func (sh *Shell) cmdWatch(args []string) {
	if sh.eem == nil {
		fmt.Fprintln(sh.out, "kati: no EEM client")
		return
	}
	if len(args) < 4 {
		fmt.Fprintln(sh.out, "usage: watch <server> <var> <op> <lower> [upper]")
		return
	}
	id := eem.ID{Server: args[0], Var: args[1]}
	op, err := eem.ParseOperator(strings.ToUpper(args[2]))
	if err != nil {
		fmt.Fprintf(sh.out, "kati: %v\n", err)
		return
	}
	attr := eem.Attr{Op: op}
	if attr.Lower, err = parseValue(args[3]); err != nil {
		fmt.Fprintf(sh.out, "kati: bad lower bound: %v\n", err)
		return
	}
	if len(args) > 4 {
		if attr.Upper, err = parseValue(args[4]); err != nil {
			fmt.Fprintf(sh.out, "kati: bad upper bound: %v\n", err)
			return
		}
	} else if op == eem.IN || op == eem.OUT {
		fmt.Fprintln(sh.out, "kati: IN/OUT need both bounds")
		return
	}
	err = sh.eem.Register(id, attr, eem.WithCallback(func(id eem.ID, v eem.Value) {
		fmt.Fprintf(sh.out, "[eem] %s = %s\n", id, v)
	}))
	if err != nil {
		fmt.Fprintf(sh.out, "kati: %v\n", err)
		return
	}
	sh.watches[id] = true
	fmt.Fprintf(sh.out, "kati: watching %s (%s %s)\n", id, op, args[3])
}

func (sh *Shell) cmdUnwatch(args []string) {
	if sh.eem == nil || len(args) < 2 {
		fmt.Fprintln(sh.out, "usage: unwatch <server> <var>")
		return
	}
	id := eem.ID{Server: args[0], Var: args[1]}
	delete(sh.watches, id)
	if err := sh.eem.Deregister(id); err != nil {
		fmt.Fprintf(sh.out, "kati: %v\n", err)
	}
}

// cmdStatus dumps the protected data area for watched variables — the
// text rendering of the Xnetload window (Fig 7.2).
func (sh *Shell) cmdStatus() {
	if len(sh.watches) == 0 {
		fmt.Fprintln(sh.out, "kati: nothing watched")
		return
	}
	var ids []eem.ID
	for id := range sh.watches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	for _, id := range ids {
		if v, ok := sh.eem.GetValue(id); ok {
			in := " "
			if sh.eem.IsInRange(id) {
				in = "*"
			}
			fmt.Fprintf(sh.out, "%s %s = %s\n", in, id, v)
		} else {
			fmt.Fprintf(sh.out, "  %s = (no data yet)\n", id)
		}
	}
}

// parseValue reads a long, double, or string value.
func parseValue(s string) (eem.Value, error) {
	var l int64
	if _, err := fmt.Sscanf(s, "%d", &l); err == nil && fmt.Sprintf("%d", l) == s {
		return eem.LongValue(l), nil
	}
	var d float64
	if _, err := fmt.Sscanf(s, "%g", &d); err == nil {
		return eem.DoubleValue(d), nil
	}
	return eem.StringValue(s), nil
}

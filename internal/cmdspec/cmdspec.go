// Package cmdspec is the single authoritative table of the SP control
// grammar: every command's name, argument signature, arity bounds,
// help text, mutation flag, and data-plane routing class lives here.
// dataplane/plane.go (shard routing, extension arity, help),
// proxy/control.go (the shards' arity checks and usage diagnostics,
// the control session's auth gating), and kati/kati.go (forwarding
// set, generated help) all read this table, so the surfaces cannot
// drift apart.
package cmdspec

import (
	"fmt"
	"sort"
	"strings"
)

// Route classifies how the sharded data plane executes a command.
type Route int

// Routing classes.
const (
	// RouteShard0 answers from shard 0 (replicated shared state).
	RouteShard0 Route = iota
	// RouteBroadcast mutates every shard under the quiesce barrier.
	RouteBroadcast
	// RouteKeyed routes an exact-key mutation to the owning shard and
	// falls back to broadcast for wild-card keys.
	RouteKeyed
	// RouteMergedReport merges per-shard report data.
	RouteMergedReport
	// RouteMergedStreams merges per-shard stream accounting.
	RouteMergedStreams
	// RouteMergedFlows merges per-shard flow-log records.
	RouteMergedFlows
)

// Spec describes one control command.
type Spec struct {
	// Name is the command word.
	Name string
	// Args is the display signature after the name ("" for none).
	Args string
	// Help is the one-line description rendered in Kati's help.
	Help string
	// MinArgs/MaxArgs bound the argument count (MaxArgs -1 = unbounded).
	MinArgs, MaxArgs int
	// Mutating marks commands that change proxy state (auth-gated under
	// a ControlPolicy token).
	Mutating bool
	// Kati marks commands the Kati shell forwards verbatim to the
	// currently selected service proxy.
	Kati bool
	// Ext marks plane-extension commands (registered at runtime via
	// Plane.RegisterCommand): they are not listed in the base help
	// line, and a plane without them answers "unknown command".
	Ext bool
	// Route is the data-plane routing class.
	Route Route
}

// Usage renders "name args".
func (s *Spec) Usage() string {
	if s.Args == "" {
		return s.Name
	}
	return s.Name + " " + s.Args
}

// UsageError renders the control-interface usage diagnostic.
func (s *Spec) UsageError() string {
	return fmt.Sprintf("error: usage: %s\n", s.Usage())
}

// ArityOK reports whether n arguments satisfy the bounds.
func (s *Spec) ArityOK(n int) bool {
	if n < s.MinArgs {
		return false
	}
	return s.MaxArgs < 0 || n <= s.MaxArgs
}

// Specs is the command table, in help-line order.
var Specs = []Spec{
	{Name: "load", Args: "<filter-lib>", Help: "load a filter library",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true, Route: RouteBroadcast},
	{Name: "remove", Args: "<filter-lib>", Help: "unload a filter library",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true, Route: RouteBroadcast},
	{Name: "add", Args: "<filter> <srcIP> <srcPort> <dstIP> <dstPort> [args]",
		Help:    "add a filter/service to a stream key",
		MinArgs: 5, MaxArgs: -1, Mutating: true, Kati: true, Route: RouteKeyed},
	{Name: "delete", Args: "<filter> <srcIP> <srcPort> <dstIP> <dstPort>",
		Help:    "remove a filter/service from a stream key",
		MinArgs: 5, MaxArgs: 5, Mutating: true, Kati: true, Route: RouteKeyed},
	{Name: "report", Args: "[<filter>]", Help: "per-filter stream report",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteMergedReport},
	{Name: "streams", Help: "active streams with packet/byte accounting",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteMergedStreams},
	{Name: "filters", Help: "loaded and loadable filters",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteShard0},
	{Name: "service", Args: "<name> <filter[:args]>...", Help: "define a named composition",
		MinArgs: 2, MaxArgs: -1, Mutating: true, Kati: true, Route: RouteBroadcast},
	{Name: "unservice", Args: "<name>", Help: "undefine a named composition",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true, Route: RouteBroadcast},
	{Name: "services", Help: "list defined services",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteShard0},
	{Name: "stats", Help: "unified metrics snapshot (proxy/links/tcp/eem)",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteShard0},
	{Name: "events", Args: "[n]", Help: "tail of the observability event log",
		MinArgs: 0, MaxArgs: -1, Kati: true, Route: RouteShard0},
	{Name: "flows", Args: "[n]", Help: "per-flow L4 records (active + recently closed)",
		MinArgs: 0, MaxArgs: 1, Kati: true, Route: RouteMergedFlows},
	{Name: "auth", Args: "<token>", Help: "authenticate a guarded proxy",
		MinArgs: 1, MaxArgs: 1, Kati: true, Route: RouteShard0},
	{Name: "help", Help: "list commands",
		MinArgs: 0, MaxArgs: -1, Route: RouteShard0},
	{Name: "policy", Args: "list|add <rule>|del <name>|trace [n]",
		Help:    "inspect and mutate adaptive policy rules",
		MinArgs: 1, MaxArgs: -1, Mutating: true, Kati: true, Ext: true, Route: RouteShard0},
	{Name: "migrate", Args: "<srcIP> <srcPort> <dstIP> <dstPort> <peerIP>",
		Help:    "hand the keyed stream (and its filter state) to the peer SP",
		MinArgs: 5, MaxArgs: 5, Mutating: true, Kati: true, Ext: true, Route: RouteShard0},
}

// index maps names to table entries.
var index = func() map[string]*Spec {
	m := make(map[string]*Spec, len(Specs))
	for i := range Specs {
		m[Specs[i].Name] = &Specs[i]
	}
	return m
}()

// Lookup finds a command's spec.
func Lookup(name string) (*Spec, bool) {
	s, ok := index[name]
	return s, ok
}

// Mutating reports whether name is a state-changing command. Unknown
// names are not mutating (they fail before touching state).
func Mutating(name string) bool {
	s, ok := index[name]
	return ok && s.Mutating
}

// KatiForwards reports whether the Kati shell forwards name verbatim
// to the current service proxy.
func KatiForwards(name string) bool {
	s, ok := index[name]
	return ok && s.Kati
}

// HelpLine renders the SP "help" output: the base (non-extension)
// commands in table order, then any runtime-registered extension
// command names, sorted.
func HelpLine(extNames ...string) string {
	var names []string
	for i := range Specs {
		if !Specs[i].Ext {
			names = append(names, Specs[i].Name)
		}
	}
	sorted := append([]string(nil), extNames...)
	sort.Strings(sorted)
	names = append(names, sorted...)
	return "commands: " + strings.Join(names, " ") + "\n"
}

// KatiHelp renders the forwarded-command section of Kati's help text,
// one aligned line per Kati-forwarded command in table order.
func KatiHelp() string {
	var b strings.Builder
	for i := range Specs {
		s := &Specs[i]
		if !s.Kati {
			continue
		}
		fmt.Fprintf(&b, "  %-38s %s\n", s.Usage(), s.Help)
	}
	return b.String()
}

package proxy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/obs"
)

// This file is the SP control grammar (thesis §5.3), the one table
// every surface reads: a command's name, arity, help text, mutation
// class and what it runs. A proxy answers it through Exec, the
// concurrent data plane through dataplane.Plane.Command, the control
// session gates its mutating rows, and Kati forwards and documents its
// Kati rows. Each row runs over Control; where a command runs — one
// shard, every shard, a merge — is the Control implementation's
// business.

// Control is the typed control surface the grammar runs over. *Proxy
// implements it directly; the concurrent dataplane.Plane implements it
// by routing each method to the shards that hold the state.
type Control interface {
	LoadFilter(lib string) (string, error)
	UnloadFilter(name string) error
	AddFilter(name string, k filter.Key, args []string) error
	DeleteFilter(name string, k filter.Key) error
	DefineService(name string, specs []string) error
	UndefineService(name string) error
	// FilterListing and ServiceListing render the loaded/loadable
	// filters and the defined services.
	FilterListing() string
	ServiceListing() string
	ReportData(name string) ([]string, map[string][]string, error)
	Streams() []StreamInfo
	AppendFlowRecords(dst []flowlog.Record) []flowlog.Record
	// Bus and Metrics are the attached event bus and metrics registry
	// (nil when none is).
	Bus() *obs.Bus
	Metrics() *obs.Registry
	// Help is the help line, with any extension commands listed.
	Help() string
}

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
	// Ext marks extension commands (registered at runtime via
	// Proxy.RegisterCommand): they are not listed in the base help
	// line, and a proxy without them answers "unknown command".
	Ext bool
	// Run executes the command over c with arity already checked. It
	// is nil for the extensions and for auth, which the ControlSession
	// answers. An error prints as "error: <err>", errUsage as the
	// usage line.
	Run func(c Control, args []string) (string, error)
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

// errUsage makes RunCommand answer the command's usage line.
var errUsage = errors.New("usage")

// count parses the optional [n] of events and flows: def when absent,
// errUsage for anything but a whole decimal number.
func count(args []string, def int) (int, error) {
	if len(args) == 0 {
		return def, nil
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, errUsage
	}
	return n, nil
}

// commands is the command table, in help-line order.
var commands = []Spec{
	{Name: "load", Args: "<filter-lib>", Help: "load a filter library",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			name, err := c.LoadFilter(a[0])
			return name + "\n", err
		}},
	{Name: "remove", Args: "<filter-lib>", Help: "unload a filter library",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) { return "", c.UnloadFilter(a[0]) }},
	{Name: "add", Args: "<filter> <srcIP> <srcPort> <dstIP> <dstPort> [args]",
		Help:    "add a filter/service to a stream key",
		MinArgs: 5, MaxArgs: -1, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			k, err := filter.ParseKey(a[1:5])
			if err != nil {
				return "", err
			}
			return "", c.AddFilter(a[0], k, a[5:])
		}},
	{Name: "delete", Args: "<filter> <srcIP> <srcPort> <dstIP> <dstPort>",
		Help:    "remove a filter/service from a stream key",
		MinArgs: 5, MaxArgs: 5, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			k, err := filter.ParseKey(a[1:5])
			if err != nil {
				return "", err
			}
			return "", c.DeleteFilter(a[0], k)
		}},
	{Name: "report", Args: "[<filter>]", Help: "per-filter stream report",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			name := ""
			if len(a) > 0 {
				name = a[0]
			}
			names, perFilter, err := c.ReportData(name)
			return renderReport(names, perFilter), err
		}},
	{Name: "streams", Help: "active streams with packet/byte accounting",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, _ []string) (string, error) { return renderStreams(c.Streams()), nil }},
	{Name: "filters", Help: "loaded and loadable filters",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, _ []string) (string, error) { return c.FilterListing(), nil }},
	// service <name> <filter[:args]>... — define a composition
	// (thesis §10.2.1's layered service abstraction).
	{Name: "service", Args: "<name> <filter[:args]>...", Help: "define a named composition",
		MinArgs: 2, MaxArgs: -1, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) { return "", c.DefineService(a[0], a[1:]) }},
	{Name: "unservice", Args: "<name>", Help: "undefine a named composition",
		MinArgs: 1, MaxArgs: 1, Mutating: true, Kati: true,
		Run: func(c Control, a []string) (string, error) { return "", c.UndefineService(a[0]) }},
	{Name: "services", Help: "list defined services",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, _ []string) (string, error) { return c.ServiceListing(), nil }},
	{Name: "stats", Help: "unified metrics snapshot (proxy/links/tcp/eem)",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, _ []string) (string, error) {
			r := c.Metrics()
			if r == nil {
				return "", errors.New("no metrics registry attached")
			}
			return r.Table("proxy statistics").String(), nil
		}},
	{Name: "events", Args: "[n]", Help: "tail of the observability event log",
		MinArgs: 0, MaxArgs: -1, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			b := c.Bus()
			if b == nil {
				return "", errors.New("no event bus attached")
			}
			n, err := count(a, 20)
			if err != nil {
				return "", err
			}
			return b.Tail(n), nil
		}},
	{Name: "flows", Args: "[n]", Help: "per-flow L4 records (active + recently closed)",
		MinArgs: 0, MaxArgs: 1, Kati: true,
		Run: func(c Control, a []string) (string, error) {
			n, err := count(a, flowlog.DefaultShow)
			if err != nil {
				return "", err
			}
			return flowlog.Render(c.AppendFlowRecords(nil), n), nil
		}},
	{Name: "auth", Args: "<token>", Help: "authenticate a guarded proxy",
		MinArgs: 1, MaxArgs: 1, Kati: true},
	{Name: "help", Help: "list commands",
		MinArgs: 0, MaxArgs: -1,
		Run: func(c Control, _ []string) (string, error) { return c.Help(), nil }},
	{Name: "policy", Args: "list|add <rule>|del <name>|trace [n]",
		Help:    "inspect and mutate adaptive policy rules",
		MinArgs: 1, MaxArgs: -1, Mutating: true, Kati: true, Ext: true},
	{Name: "migrate", Args: "<srcIP> <srcPort> <dstIP> <dstPort> <peerIP>",
		Help:    "hand the keyed stream (and its filter state) to the peer SP",
		MinArgs: 5, MaxArgs: 5, Mutating: true, Kati: true, Ext: true},
}

// index maps names to table entries.
var index = func() map[string]*Spec {
	m := make(map[string]*Spec, len(commands))
	for i := range commands {
		m[commands[i].Name] = &commands[i]
	}
	return m
}()

// Lookup finds a command's spec.
func Lookup(name string) (*Spec, bool) {
	s, ok := index[name]
	return s, ok
}

// RunCommand runs one command line, split into fields, over c: the
// table's arity check, then the row's Run. A name without a Run is
// unknown here. Empty input prints nothing.
func RunCommand(c Control, fields []string) string {
	if len(fields) == 0 {
		return ""
	}
	s, ok := index[fields[0]]
	if !ok || s.Run == nil {
		return fmt.Sprintf("error: unknown command %q\n", fields[0])
	}
	if !s.ArityOK(len(fields) - 1) {
		return s.UsageError()
	}
	out, err := s.Run(c, fields[1:])
	switch {
	case err == errUsage:
		return s.UsageError()
	case err != nil:
		return fmt.Sprintf("error: %v\n", err)
	}
	return out
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
	for i := range commands {
		if !commands[i].Ext {
			names = append(names, commands[i].Name)
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
	for i := range commands {
		s := &commands[i]
		if !s.Kati {
			continue
		}
		fmt.Fprintf(&b, "  %-38s %s\n", s.Usage(), s.Help)
	}
	return b.String()
}

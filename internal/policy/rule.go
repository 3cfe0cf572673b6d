package policy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/eem"
	"repro/internal/filter"
)

// Rule is one declarative adaptation rule:
//
//	<name> when <var>[:<index>] <op> <enter> [exit <bound>] for <hold>
//	       then <load|remove|config|command> <filter[:args]> on <sIP> <sP> <dIP> <dP>
//	       [rate <ticks>]
//
// The variable names an EEM variable on the engine's server. The rule
// enters (fires its action) once `<var> <op> <enter>` has held for
// <hold> consecutive engine ticks, and exits (reverts the action) once
// `<var> <op> <exit-bound>` has been false for <hold> consecutive
// ticks. The exit bound defaults to the enter bound; giving a wider
// one opens a hysteresis band so the rule does not flap when the
// variable hovers at the threshold. `rate` spaces consecutive fires by
// at least that many ticks.
type Rule struct {
	Name   string
	Var    string
	Index  int
	Op     eem.Operator
	Enter  eem.Value
	Exit   eem.Value
	Hold   int
	Action string // "load", "remove", or "config"
	Filter string
	FArgs  []string
	Key    filter.Key
	Rate   int
}

// Actions a rule may take on its stream key.
const (
	ActionLoad   = "load"   // load the filter library and attach it
	ActionRemove = "remove" // detach the filter; revert re-attaches
	ActionConfig = "config" // re-attach with new args; revert detaches
	// ActionCommand drives a registered SP command instead of a filter:
	// fire runs `<name> <args...> on`, revert runs `<name> <args...>
	// off`. This is how a rule reaches management verbs that are not
	// per-stream filters — the mmWave pack's `mmwave shed` leg switch.
	// The rule's stream key is not used; write it as zeros.
	ActionCommand = "command"
)

// ParseRule parses the rule grammar above.
func ParseRule(spec string) (*Rule, error) {
	toks := strings.Fields(spec)
	r := &Rule{Hold: 1}
	next := func() (string, bool) {
		if len(toks) == 0 {
			return "", false
		}
		t := toks[0]
		toks = toks[1:]
		return t, true
	}
	expect := func(word string) error {
		t, ok := next()
		if !ok || t != word {
			return fmt.Errorf("policy: rule %q: expected %q, got %q", r.Name, word, t)
		}
		return nil
	}

	name, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: empty rule")
	}
	r.Name = name
	if err := expect("when"); err != nil {
		return nil, err
	}

	v, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing variable", r.Name)
	}
	if i := strings.IndexByte(v, ':'); i >= 0 {
		idx, err := strconv.Atoi(v[i+1:])
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("policy: rule %q: bad variable index in %q", r.Name, v)
		}
		r.Var, r.Index = v[:i], idx
	} else {
		r.Var = v
	}

	opTok, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing operator", r.Name)
	}
	op, err := eem.ParseOperator(strings.ToUpper(opTok))
	if err != nil {
		return nil, fmt.Errorf("policy: rule %q: %v", r.Name, err)
	}
	if op == eem.IN || op == eem.OUT {
		return nil, fmt.Errorf("policy: rule %q: IN/OUT not supported; use exit bounds for hysteresis", r.Name)
	}
	r.Op = op

	bound, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing enter bound", r.Name)
	}
	r.Enter = eem.ParseValue(bound)
	r.Exit = r.Enter

	t, ok := next()
	if ok && t == "exit" {
		b, ok := next()
		if !ok {
			return nil, fmt.Errorf("policy: rule %q: missing exit bound", r.Name)
		}
		r.Exit = eem.ParseValue(b)
		t, ok = next()
	}
	if !ok || t != "for" {
		return nil, fmt.Errorf("policy: rule %q: expected \"for\", got %q", r.Name, t)
	}
	holdTok, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing hold count", r.Name)
	}
	hold, err := strconv.Atoi(holdTok)
	if err != nil || hold < 1 {
		return nil, fmt.Errorf("policy: rule %q: bad hold count %q", r.Name, holdTok)
	}
	r.Hold = hold
	if err := expect("then"); err != nil {
		return nil, err
	}

	action, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing action", r.Name)
	}
	switch action {
	case ActionLoad, ActionRemove, ActionConfig, ActionCommand:
		r.Action = action
	default:
		return nil, fmt.Errorf("policy: rule %q: unknown action %q (want load/remove/config/command)", r.Name, action)
	}

	fspec, ok := next()
	if !ok {
		return nil, fmt.Errorf("policy: rule %q: missing filter", r.Name)
	}
	parts := strings.Split(fspec, ":")
	r.Filter, r.FArgs = parts[0], parts[1:]
	if r.Filter == "" {
		return nil, fmt.Errorf("policy: rule %q: empty filter name", r.Name)
	}
	if err := expect("on"); err != nil {
		return nil, err
	}
	if len(toks) < 4 {
		return nil, fmt.Errorf("policy: rule %q: stream key needs <srcIP> <srcPort> <dstIP> <dstPort>", r.Name)
	}
	k, err := filter.ParseKey(toks[:4])
	if err != nil {
		return nil, fmt.Errorf("policy: rule %q: %v", r.Name, err)
	}
	r.Key = k
	toks = toks[4:]

	if t, ok := next(); ok {
		if t != "rate" {
			return nil, fmt.Errorf("policy: rule %q: unexpected token %q", r.Name, t)
		}
		rateTok, ok := next()
		if !ok {
			return nil, fmt.Errorf("policy: rule %q: missing rate", r.Name)
		}
		rate, err := strconv.Atoi(rateTok)
		if err != nil || rate < 0 {
			return nil, fmt.Errorf("policy: rule %q: bad rate %q", r.Name, rateTok)
		}
		r.Rate = rate
	}
	if len(toks) != 0 {
		return nil, fmt.Errorf("policy: rule %q: trailing tokens %v", r.Name, toks)
	}
	return r, nil
}

// String renders the canonical rule text (parse-roundtrip stable).
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s when %s", r.Name, r.Var)
	if r.Index != 0 {
		fmt.Fprintf(&b, ":%d", r.Index)
	}
	fmt.Fprintf(&b, " %s %s", r.Op, r.Enter)
	if !r.Exit.Equal(r.Enter) {
		fmt.Fprintf(&b, " exit %s", r.Exit)
	}
	fmt.Fprintf(&b, " for %d then %s %s", r.Hold, r.Action, r.filterSpec())
	fmt.Fprintf(&b, " on %s %d %s %d", r.Key.SrcIP, r.Key.SrcPort, r.Key.DstIP, r.Key.DstPort)
	if r.Rate > 0 {
		fmt.Fprintf(&b, " rate %d", r.Rate)
	}
	return b.String()
}

func (r *Rule) filterSpec() string {
	if len(r.FArgs) == 0 {
		return r.Filter
	}
	return r.Filter + ":" + strings.Join(r.FArgs, ":")
}

// id is the EEM identity the rule samples, on the engine's server.
func (r *Rule) id(server string) eem.ID {
	return eem.ID{Server: server, Var: r.Var, Index: r.Index}
}

// enterAttr is the region of interest whose entry fires the rule.
func (r *Rule) enterAttr() eem.Attr { return eem.Attr{Op: r.Op, Lower: r.Enter} }

// exitAttr is the region whose exit reverts the rule (the hysteresis
// band when Exit differs from Enter).
func (r *Rule) exitAttr() eem.Attr { return eem.Attr{Op: r.Op, Lower: r.Exit} }

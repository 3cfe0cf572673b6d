// Package policy closes the EEM→SP control loop of the thesis: an
// adaptive policy engine subscribes to execution-environment variables
// through the comma_* client API and mutates Service Proxy filter
// state when declarative rules trip. Chapter 6 builds the monitoring
// plane and chapter 5 the control plane; this package is the automatic
// controller the thesis sketches between them — services that load
// themselves when the environment degrades and withdraw when it
// recovers, with no human at the Kati prompt.
//
// The engine is scheduler-driven and fully deterministic: it samples
// each rule's variable from the protected data area on a fixed tick,
// applies a hysteresis state machine (enter/exit bounds plus hold
// counts), rate-limits fires, and rolls partially-applied actions back
// when a control mutation fails. Every transition emits an obs event
// and is appended to a bounded trace ring that the `policy trace`
// control command renders.
package policy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// Control is the SP surface the engine drives: typed mutations, whose
// sentinel errors its rollback logic branches on, plus the raw command
// line that rules with the "command" action run. A site's
// *proxy.Proxy satisfies it; the tests drive a fake.
type Control interface {
	LoadFilter(lib string) (string, error)
	UnloadFilter(name string) error
	AddFilter(name string, k filter.Key, args []string) error
	DeleteFilter(name string, k filter.Key) error
	Exec(line string) string
}

// DefaultPeriod is the sampling tick when Config.Period is zero.
const DefaultPeriod = 500 * time.Millisecond

// DefaultTraceCap bounds the transition trace ring.
const DefaultTraceCap = 128

// Config assembles an Engine.
type Config struct {
	Sched   *sim.Scheduler
	Comma   *eem.Comma // client API session the engine subscribes through
	Control Control
	// Server is the EEM server (addr[:port]) rule variables live on.
	Server string
	Bus    *obs.Bus // optional
	// Period is the sampling tick (DefaultPeriod when zero).
	Period time.Duration
}

// Rule states.
const (
	stIdle    = iota // condition false, action not applied
	stHolding        // enter condition true, counting toward Hold
	stActive         // action applied
	stExiting        // exit condition true, counting toward Hold
)

func stateName(st int) string {
	switch st {
	case stIdle:
		return "idle"
	case stHolding:
		return "holding"
	case stActive:
		return "active"
	case stExiting:
		return "exiting"
	}
	return "?"
}

// boundRule is a Rule plus its runtime state.
type boundRule struct {
	*Rule
	state     int
	count     int   // consecutive ticks the pending condition has held
	lastFire  int64 // engine tick of the last fire; -1 = never
	weLoaded  bool  // the fire loaded the filter library (unload on revert/rollback)
	loadedLib string
}

// Engine evaluates rules on a fixed scheduler tick.
type Engine struct {
	sched  *sim.Scheduler
	cm     *eem.Comma
	ctrl   Control
	server string
	bus    *obs.Bus
	period time.Duration

	rules []*boundRule
	trace []string
	tick  int64

	fires, reverts, rollbacks   int64
	rateLimited, actionFailures int64
	started                     bool
}

// New builds an engine; call AddRule and then Start.
func New(cfg Config) *Engine {
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	return &Engine{
		sched:  cfg.Sched,
		cm:     cfg.Comma,
		ctrl:   cfg.Control,
		server: cfg.Server,
		bus:    cfg.Bus,
		period: cfg.Period,
	}
}

// RegisterMetrics publishes the engine's counters under prefix.
func (e *Engine) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix+".fires", func() int64 { return e.fires })
	reg.Counter(prefix+".reverts", func() int64 { return e.reverts })
	reg.Counter(prefix+".rollbacks", func() int64 { return e.rollbacks })
	reg.Counter(prefix+".rate_limited", func() int64 { return e.rateLimited })
	reg.Counter(prefix+".action_failures", func() int64 { return e.actionFailures })
	reg.Counter(prefix+".rules", func() int64 { return int64(len(e.rules)) })
	reg.Counter(prefix+".active", func() int64 {
		var n int64
		for _, r := range e.rules {
			if r.state == stActive || r.state == stExiting {
				n++
			}
		}
		return n
	})
}

// AddRule parses spec, subscribes its variable through the client API
// (WithPDA keeps the protected data area fresh even while the variable
// sits outside the region of interest), and arms the rule.
func (e *Engine) AddRule(spec string) error {
	r, err := ParseRule(spec)
	if err != nil {
		return err
	}
	for _, have := range e.rules {
		if have.Name == r.Name {
			return fmt.Errorf("policy: duplicate rule %q", r.Name)
		}
	}
	id := r.id(e.server)
	if err := e.cm.Register(id, r.enterAttr(), eem.WithPDA(e.period)); err != nil {
		return fmt.Errorf("policy: rule %q: register %s: %w", r.Name, id, err)
	}
	br := &boundRule{Rule: r, lastFire: -1}
	e.rules = append(e.rules, br)
	e.event("rule-add", r.Name, obs.F("rule", r.String()))
	e.traceAdd(fmt.Sprintf("rule-add %s", r.String()))
	return nil
}

// DelRule removes a rule by name, reverting its action first if it is
// currently applied, and drops the variable subscription when no other
// rule shares it.
func (e *Engine) DelRule(name string) error {
	idx := -1
	for i, r := range e.rules {
		if r.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("policy: no rule %q", name)
	}
	r := e.rules[idx]
	if r.state == stActive || r.state == stExiting {
		e.doRevert(r)
	}
	e.rules = append(e.rules[:idx], e.rules[idx+1:]...)
	id := r.id(e.server)
	shared := false
	for _, other := range e.rules {
		if other.id(e.server) == id {
			shared = true
			break
		}
	}
	if !shared {
		if err := e.cm.Deregister(id); err != nil {
			e.event("deregister-failed", r.Name, obs.F("err", err.Error()))
		}
	}
	e.event("rule-del", r.Name)
	e.traceAdd(fmt.Sprintf("rule-del %s", r.Name))
	return nil
}

// Start arms the sampling tick. Idempotent.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	var tick func()
	tick = func() {
		e.step()
		e.sched.After(e.period, tick)
	}
	e.sched.After(e.period, tick)
}

// step evaluates every rule once, in insertion order — determinism
// depends on this order being stable.
func (e *Engine) step() {
	e.tick++
	for _, r := range e.rules {
		v, ok := e.cm.GetValue(r.id(e.server))
		if !ok {
			continue // no sample yet
		}
		enter, err := r.enterAttr().Matches(v)
		if err != nil {
			enter = false
		}
		switch r.state {
		case stIdle:
			if enter {
				r.state, r.count = stHolding, 1
				e.transition(r, v, "hold")
				if r.count >= r.Hold {
					e.tryFire(r, v)
				}
			}
		case stHolding:
			if !enter {
				r.state, r.count = stIdle, 0
				e.transition(r, v, "hold-abort")
				continue
			}
			r.count++
			if r.count >= r.Hold {
				e.tryFire(r, v)
			}
		case stActive, stExiting:
			in, err := r.exitAttr().Matches(v)
			if err != nil {
				in = true // unreadable sample: stay applied
			}
			if r.state == stActive {
				if !in {
					r.state, r.count = stExiting, 1
					e.transition(r, v, "exit-hold")
					if r.count >= r.Hold {
						e.tryRevert(r, v)
					}
				}
				continue
			}
			if in {
				r.state, r.count = stActive, 0
				e.transition(r, v, "exit-abort")
				continue
			}
			r.count++
			if r.count >= r.Hold {
				e.tryRevert(r, v)
			}
		}
	}
}

// tryFire applies the rule's action, honoring the rate limit.
func (e *Engine) tryFire(r *boundRule, v eem.Value) {
	if r.Rate > 0 && r.lastFire >= 0 && e.tick-r.lastFire < int64(r.Rate) {
		e.rateLimited++
		// Hold at the threshold and retry next tick.
		r.count = r.Hold
		e.transition(r, v, "rate-limited")
		return
	}
	if err := e.doFire(r); err != nil {
		e.actionFailures++
		r.state, r.count = stIdle, 0
		e.event("action-failed", r.Name, obs.F("err", err.Error()))
		e.traceAdd(fmt.Sprintf("action-failed %s: %v", r.Name, err))
		return
	}
	e.fires++
	r.lastFire = e.tick
	r.state, r.count = stActive, 0
	e.transition(r, v, "fire")
}

// doFire executes the action, rolling back partial steps on failure.
func (e *Engine) doFire(r *boundRule) error {
	switch r.Action {
	case ActionLoad:
		r.weLoaded = false
		name, err := e.ctrl.LoadFilter(r.Filter)
		switch {
		case err == nil:
			r.weLoaded, r.loadedLib = true, name
		case errors.Is(err, proxy.ErrAlreadyLoaded):
			// Someone else loaded it; attach to the existing pool entry.
		case errors.Is(err, filter.ErrUnknownFilter):
			// Not a library name — a defined service; add resolves it.
		default:
			return fmt.Errorf("load %s: %w", r.Filter, err)
		}
		if err := e.ctrl.AddFilter(r.Filter, r.Key, r.FArgs); err != nil {
			if r.weLoaded {
				// Roll the load back so a failed fire leaves no residue.
				if uerr := e.ctrl.UnloadFilter(r.loadedLib); uerr == nil {
					e.rollbacks++
					e.event("rollback", r.Name, obs.F("filter", r.loadedLib))
					e.traceAdd(fmt.Sprintf("rollback %s: unloaded %s", r.Name, r.loadedLib))
				}
				r.weLoaded = false
			}
			return fmt.Errorf("add %s: %w", r.Filter, err)
		}
		return nil
	case ActionRemove:
		if err := e.ctrl.DeleteFilter(r.Filter, r.Key); err != nil && !errors.Is(err, proxy.ErrNoSuchStream) {
			return fmt.Errorf("delete %s: %w", r.Filter, err)
		}
		return nil
	case ActionConfig:
		// Reconfigure: replace any current attachment with the rule's
		// args. A missing attachment is fine — config then behaves as
		// a plain add.
		if err := e.ctrl.DeleteFilter(r.Filter, r.Key); err != nil && !errors.Is(err, proxy.ErrNoSuchStream) {
			return fmt.Errorf("delete %s: %w", r.Filter, err)
		}
		if err := e.ctrl.AddFilter(r.Filter, r.Key, r.FArgs); err != nil {
			return fmt.Errorf("add %s: %w", r.Filter, err)
		}
		return nil
	case ActionCommand:
		return e.runCommand(r, "on")
	}
	return fmt.Errorf("unknown action %q", r.Action)
}

// runCommand drives a registered SP command for an ActionCommand rule:
// the rule's filter spec becomes the command name and arguments, with
// "on" (fire) or "off" (revert) appended.
func (e *Engine) runCommand(r *boundRule, state string) error {
	parts := append([]string{r.Filter}, r.FArgs...)
	line := strings.Join(append(parts, state), " ")
	if out := e.ctrl.Exec(line); strings.HasPrefix(out, "error") {
		return fmt.Errorf("command %q: %s", line, out)
	}
	return nil
}

// tryRevert withdraws the rule's action.
func (e *Engine) tryRevert(r *boundRule, v eem.Value) {
	if err := e.doRevert(r); err != nil {
		e.actionFailures++
		// Stay active: the exit detector re-arms next tick and the
		// revert retries after another hold window.
		r.state, r.count = stActive, 0
		e.event("action-failed", r.Name, obs.F("err", err.Error()))
		e.traceAdd(fmt.Sprintf("action-failed %s: %v", r.Name, err))
		return
	}
	e.reverts++
	r.state, r.count = stIdle, 0
	e.transition(r, v, "revert")
}

// doRevert undoes doFire.
func (e *Engine) doRevert(r *boundRule) error {
	switch r.Action {
	case ActionLoad:
		if err := e.ctrl.DeleteFilter(r.Filter, r.Key); err != nil && !errors.Is(err, proxy.ErrNoSuchStream) {
			return fmt.Errorf("delete %s: %w", r.Filter, err)
		}
		if r.weLoaded {
			if err := e.ctrl.UnloadFilter(r.loadedLib); err != nil && !errors.Is(err, proxy.ErrNotLoaded) {
				return fmt.Errorf("unload %s: %w", r.loadedLib, err)
			}
			r.weLoaded = false
		}
		return nil
	case ActionRemove:
		return e.ctrl.AddFilter(r.Filter, r.Key, r.FArgs)
	case ActionConfig:
		if err := e.ctrl.DeleteFilter(r.Filter, r.Key); err != nil && !errors.Is(err, proxy.ErrNoSuchStream) {
			return fmt.Errorf("delete %s: %w", r.Filter, err)
		}
		return nil
	case ActionCommand:
		return e.runCommand(r, "off")
	}
	return fmt.Errorf("unknown action %q", r.Action)
}

// transition records a state-machine step in the event log and trace.
func (e *Engine) transition(r *boundRule, v eem.Value, kind string) {
	e.event(kind, r.Name, obs.F("value", v.String()), obs.F("state", stateName(r.state)))
	e.traceAdd(fmt.Sprintf("%s %s %s=%s state=%s", kind, r.Name, r.Var, v, stateName(r.state)))
}

func (e *Engine) event(kind, key string, fields ...obs.Field) {
	if e.bus != nil {
		e.bus.Emit("policy", kind, key, fields...)
	}
}

func (e *Engine) traceAdd(line string) {
	entry := fmt.Sprintf("[%v] %s", e.sched.Now(), line)
	e.trace = append(e.trace, entry)
	if len(e.trace) > DefaultTraceCap {
		e.trace = e.trace[len(e.trace)-DefaultTraceCap:]
	}
}

// Command implements the `policy` control command:
//
//	policy list           rules with their current state
//	policy add <rule>     parse and arm a rule
//	policy del <name>     disarm and remove a rule
//	policy trace [n]      last n trace entries (default 20)
//
// It is registered on the proxy via RegisterCommand, so it speaks
// the same fail-silent telnet dialect as the rest of the SP grammar.
func (e *Engine) Command(args []string) string {
	switch args[0] {
	case "list":
		var b strings.Builder
		for _, r := range e.rules {
			fmt.Fprintf(&b, "%s [%s] %s\n", r.Name, stateName(r.state), r.String())
		}
		return b.String()
	case "add":
		if len(args) < 2 {
			return "error: usage: policy add <rule>\n"
		}
		if err := e.AddRule(strings.Join(args[1:], " ")); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	case "del":
		if len(args) != 2 {
			return "error: usage: policy del <name>\n"
		}
		if err := e.DelRule(args[1]); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return ""
	case "trace":
		n := 20
		if len(args) > 1 {
			parsed, err := strconv.Atoi(args[1])
			if err != nil || parsed < 1 {
				return "error: usage: policy trace [n]\n"
			}
			n = parsed
		}
		start := len(e.trace) - n
		if start < 0 {
			start = 0
		}
		var b strings.Builder
		for _, line := range e.trace[start:] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return b.String()
	default:
		return fmt.Sprintf("error: unknown policy subcommand %q\n", args[0])
	}
}

package policy_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// fakeControl records every control mutation the engine performs and
// can be scripted to fail, standing in for the SP data plane.
type fakeControl struct {
	calls   []string
	failAdd error
	loaded  map[string]bool
}

func (f *fakeControl) LoadFilter(lib string) (string, error) {
	f.calls = append(f.calls, "load:"+lib)
	if f.loaded == nil {
		f.loaded = make(map[string]bool)
	}
	f.loaded[lib] = true
	return lib, nil
}

func (f *fakeControl) UnloadFilter(name string) error {
	f.calls = append(f.calls, "unload:"+name)
	delete(f.loaded, name)
	return nil
}

func (f *fakeControl) AddFilter(name string, k filter.Key, args []string) error {
	f.calls = append(f.calls, "add:"+name)
	return f.failAdd
}

func (f *fakeControl) DeleteFilter(name string, k filter.Key) error {
	f.calls = append(f.calls, "del:"+name)
	return nil
}

func (f *fakeControl) Exec(line string) string {
	f.calls = append(f.calls, "cmd:"+line)
	return ""
}

// polRig is a two-host EEM rig whose server exports a test-scripted
// "load" variable, with a policy engine sampling it every 100ms.
type polRig struct {
	sched *sim.Scheduler
	bus   *obs.Bus
	eng   *policy.Engine
	ctrl  *fakeControl
	val   *int64
}

func newPolRig(t *testing.T) *polRig {
	t.Helper()
	s := sim.NewScheduler(7)
	n := netsim.New(s)
	ch := n.AddNode("engine")
	sh := n.AddNode("proxyhost")
	n.Connect(ch, ip.MustParseAddr("10.0.0.1"), sh, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	cStack := tcp.NewStack(ch, tcp.Config{})
	sStack := tcp.NewStack(sh, tcp.Config{})
	ch.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { cStack.Deliver(h.Src, h.Dst, p) })
	sh.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sStack.Deliver(h.Src, h.Dst, p) })

	val := new(int64)
	srv := eem.NewServer("proxyhost")
	srv.Interval = time.Hour // isolate the engine's own PDA pump
	srv.AddSource(loadSource{val})
	if err := eem.ServeSim(sStack, eem.DefaultPort, srv); err != nil {
		t.Fatal(err)
	}
	srv.StartSimTicker(s)

	cm := eem.NewComma(eem.SimDialer(cStack))
	cm.UseScheduler(s)
	bus := obs.NewBus(s, 4096)
	cm.SetObs(bus)
	ctrl := &fakeControl{}
	eng := policy.New(policy.Config{
		Sched:   s,
		Comma:   cm,
		Control: ctrl,
		Server:  "10.0.0.2",
		Bus:     bus,
		Period:  100 * time.Millisecond,
	})
	return &polRig{sched: s, bus: bus, eng: eng, ctrl: ctrl, val: val}
}

// loadSource serves one variable, "load", whose value is *val.
type loadSource struct{ val *int64 }

func (loadSource) Variables() []string { return []string{"load"} }
func (s loadSource) Get(string, int) (eem.Value, error) {
	return eem.LongValue(*s.val), nil
}

func (r *polRig) kinds() map[string]int {
	m := map[string]int{}
	for _, e := range r.bus.Events() {
		if e.Subsys == "policy" {
			m[e.Kind]++
		}
	}
	return m
}

func TestParseRuleRoundTrip(t *testing.T) {
	specs := []string{
		"compress when ifSpeed:1 LT 1000000 for 2 then load comp:6 on 11.11.10.99 0 11.11.10.10 0 rate 1",
		"shed when cpuLoadAvg GT 0.9 exit 0.5 for 3 then remove snoop on 10.0.0.1 7 10.0.0.2 80",
		"tune when netLatency GTE 50 for 1 then config wsize:8192 on 10.0.0.1 0 10.0.0.2 0",
	}
	for _, spec := range specs {
		r, err := policy.ParseRule(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		again, err := policy.ParseRule(r.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", r.String(), err)
		}
		if again.String() != r.String() {
			t.Fatalf("round-trip unstable:\n first %q\n again %q", r.String(), again.String())
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []struct {
		spec     string
		contains string
	}{
		{"", "empty rule"},
		{"r1", `expected "when"`},
		{"r1 when", "missing variable"},
		{"r1 when x:-1 GT 1 for 1 then load f on 1.2.3.4 0 5.6.7.8 0", "bad variable index"},
		{"r1 when x IN 1 for 1 then load f on 1.2.3.4 0 5.6.7.8 0", "IN/OUT not supported"},
		{"r1 when x GT 1 for 0 then load f on 1.2.3.4 0 5.6.7.8 0", "bad hold count"},
		{"r1 when x GT 1 for 1 then explode f on 1.2.3.4 0 5.6.7.8 0", "unknown action"},
		{"r1 when x GT 1 for 1 then load f on 1.2.3.4 0", "stream key needs"},
		{"r1 when x GT 1 for 1 then load f on 1.2.3.4 0 5.6.7.8 0 rate -1", "bad rate"},
		{"r1 when x GT 1 for 1 then load f on 1.2.3.4 0 5.6.7.8 0 junk", "unexpected token"},
	}
	for _, c := range cases {
		_, err := policy.ParseRule(c.spec)
		if err == nil {
			t.Errorf("%q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.contains) {
			t.Errorf("%q: error %q missing %q", c.spec, err, c.contains)
		}
	}
}

// TestEngineHysteresisCycle drives one full load→hold→unload cycle:
// the variable crosses the enter bound, holds for the hold window, the
// action fires; it then drops below the exit bound, holds again, and
// the action reverts. The band between exit (5) and enter (10) must
// not flap the rule in either direction.
func TestEngineHysteresisCycle(t *testing.T) {
	r := newPolRig(t)
	err := r.eng.AddRule("shed when load GT 10 exit 5 for 3 then load comp:6 on 10.0.0.1 7 10.0.0.2 80")
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Start()
	r.sched.RunFor(2 * time.Second) // below enter: nothing happens
	if len(r.ctrl.calls) != 0 {
		t.Fatalf("actions before threshold: %v", r.ctrl.calls)
	}

	*r.val = 20
	r.sched.RunFor(2 * time.Second)
	if got := strings.Join(r.ctrl.calls, " "); got != "load:comp add:comp" {
		t.Fatalf("fire calls = %q, want load then add", got)
	}
	if !strings.Contains(r.eng.Command([]string{"list"}), "[active]") {
		t.Fatalf("rule not active after fire:\n%s", r.eng.Command([]string{"list"}))
	}

	// Inside the hysteresis band: no exit, no re-fire.
	*r.val = 7
	r.sched.RunFor(2 * time.Second)
	if len(r.ctrl.calls) != 2 {
		t.Fatalf("band value mutated control state: %v", r.ctrl.calls)
	}

	// Below the exit bound: revert after the hold window.
	*r.val = 2
	r.sched.RunFor(2 * time.Second)
	if got := strings.Join(r.ctrl.calls, " "); got != "load:comp add:comp del:comp unload:comp" {
		t.Fatalf("cycle calls = %q", got)
	}
	if !strings.Contains(r.eng.Command([]string{"list"}), "[idle]") {
		t.Fatalf("rule not idle after revert:\n%s", r.eng.Command([]string{"list"}))
	}
	k := r.kinds()
	if k["fire"] != 1 || k["revert"] != 1 {
		t.Fatalf("events = %v, want one fire and one revert", k)
	}
	trace := r.eng.Command([]string{"trace"})
	for _, want := range []string{"fire shed", "revert shed"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
}

// TestEngineHoldAbortsOnDip: a spike shorter than the hold window must
// not fire — that is the point of the hold count.
func TestEngineHoldAbortsOnDip(t *testing.T) {
	r := newPolRig(t)
	if err := r.eng.AddRule("shed when load GT 10 for 10 then load comp on 10.0.0.1 7 10.0.0.2 80"); err != nil {
		t.Fatal(err)
	}
	r.eng.Start()
	r.sched.RunFor(time.Second)
	*r.val = 20
	r.sched.RunFor(400 * time.Millisecond) // ~4 ticks < hold 10
	*r.val = 0
	r.sched.RunFor(2 * time.Second)
	if len(r.ctrl.calls) != 0 {
		t.Fatalf("short spike fired the rule: %v", r.ctrl.calls)
	}
	if r.kinds()["hold-abort"] == 0 {
		t.Fatal("no hold-abort event for the aborted spike")
	}
}

// TestEngineRateLimit: with `rate 20`, a second fire within 20 ticks
// of the first is deferred, not dropped — it lands once the window
// passes.
func TestEngineRateLimit(t *testing.T) {
	r := newPolRig(t)
	err := r.eng.AddRule("shed when load GT 10 for 1 then load comp on 10.0.0.1 7 10.0.0.2 80 rate 20")
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Start()
	*r.val = 20
	r.sched.RunFor(time.Second) // fire #1
	*r.val = 0
	r.sched.RunFor(500 * time.Millisecond) // revert
	*r.val = 20
	r.sched.RunFor(500 * time.Millisecond) // within 20 ticks of fire #1
	k := r.kinds()
	if k["fire"] != 1 {
		t.Fatalf("fires = %d before the rate window passed, want 1 (events %v)", k["fire"], k)
	}
	if k["rate-limited"] == 0 {
		t.Fatalf("no rate-limited event while deferred (events %v)", k)
	}
	r.sched.RunFor(3 * time.Second) // window passes
	if got := r.kinds()["fire"]; got != 2 {
		t.Fatalf("fires = %d after the rate window, want 2", got)
	}
}

// TestEngineRollbackOnAddFailure: when the attach step fails after the
// library loaded, the engine unloads the library again so a failed
// fire leaves no residue, then succeeds on a later tick once the
// control plane recovers.
func TestEngineRollbackOnAddFailure(t *testing.T) {
	r := newPolRig(t)
	if err := r.eng.AddRule("shed when load GT 10 for 1 then load comp on 10.0.0.1 7 10.0.0.2 80"); err != nil {
		t.Fatal(err)
	}
	r.ctrl.failAdd = errors.New("shard wedged")
	r.eng.Start()
	*r.val = 20
	r.sched.RunFor(time.Second)
	if len(r.ctrl.calls) < 3 || r.ctrl.calls[2] != "unload:comp" {
		t.Fatalf("no rollback unload after add failure: %v", r.ctrl.calls[:min(3, len(r.ctrl.calls))])
	}
	k := r.kinds()
	if k["rollback"] == 0 || k["action-failed"] == 0 {
		t.Fatalf("events = %v, want rollback and action-failed", k)
	}
	if strings.Contains(r.eng.Command([]string{"list"}), "[active]") {
		t.Fatal("rule active after failed fire")
	}

	// Control plane recovers: the still-true condition re-fires.
	r.ctrl.failAdd = nil
	r.sched.RunFor(time.Second)
	if r.kinds()["fire"] == 0 {
		t.Fatal("no fire after the control plane recovered")
	}
	if !strings.Contains(r.eng.Command([]string{"list"}), "[active]") {
		t.Fatal("rule not active after recovery fire")
	}
}

// TestEngineCommand covers the `policy` control-command surface.
func TestEngineCommand(t *testing.T) {
	r := newPolRig(t)
	spec := "shed when load GT 10 for 1 then load comp on 10.0.0.1 7 10.0.0.2 80"
	if out := r.eng.Command([]string{"add", "shed", "when", "load", "GT", "10", "for", "1",
		"then", "load", "comp", "on", "10.0.0.1", "7", "10.0.0.2", "80"}); out != "" {
		t.Fatalf("add: %q", out)
	}
	if out := r.eng.Command([]string{"list"}); !strings.Contains(out, spec) {
		t.Fatalf("list missing rule:\n%s", out)
	}
	if out := r.eng.Command([]string{"add", spec}); !strings.Contains(out, "error:") {
		t.Fatalf("duplicate add accepted: %q", out)
	}
	if out := r.eng.Command([]string{"trace"}); !strings.Contains(out, "rule-add") {
		t.Fatalf("trace missing rule-add: %q", out)
	}
	if out := r.eng.Command([]string{"trace", "zero"}); !strings.Contains(out, "usage") {
		t.Fatalf("bad trace arg accepted: %q", out)
	}
	if out := r.eng.Command([]string{"del", "shed"}); out != "" {
		t.Fatalf("del: %q", out)
	}
	if out := r.eng.Command([]string{"del", "shed"}); !strings.Contains(out, "error:") {
		t.Fatalf("del of missing rule silent: %q", out)
	}
	if out := r.eng.Command([]string{"frobnicate"}); !strings.Contains(out, "unknown policy subcommand") {
		t.Fatalf("unknown subcommand: %q", out)
	}
	if out := r.eng.Command([]string{"list"}); out != "" {
		t.Fatalf("list after del: %q", out)
	}
}

// TestEngineDelRevertsActiveRule: deleting a rule whose action is
// applied withdraws the action first.
func TestEngineDelRevertsActiveRule(t *testing.T) {
	r := newPolRig(t)
	if err := r.eng.AddRule("shed when load GT 10 for 1 then load comp on 10.0.0.1 7 10.0.0.2 80"); err != nil {
		t.Fatal(err)
	}
	r.eng.Start()
	*r.val = 20
	r.sched.RunFor(time.Second)
	if err := r.eng.DelRule("shed"); err != nil {
		t.Fatal(err)
	}
	want := "load:comp add:comp del:comp unload:comp"
	if got := strings.Join(r.ctrl.calls, " "); got != want {
		t.Fatalf("calls = %q, want %q", got, want)
	}
	// The subscription is gone too: further ticks see no value, no calls.
	r.sched.RunFor(time.Second)
	if got := strings.Join(r.ctrl.calls, " "); got != want {
		t.Fatalf("deleted rule still acting: %q", got)
	}
}

// TestEngineMetrics pins the registered counter names and a couple of
// values after a full cycle.
func TestEngineMetrics(t *testing.T) {
	r := newPolRig(t)
	reg := obs.NewRegistry()
	r.eng.RegisterMetrics(reg, "policy")
	if err := r.eng.AddRule("shed when load GT 10 exit 5 for 1 then load comp on 10.0.0.1 7 10.0.0.2 80"); err != nil {
		t.Fatal(err)
	}
	r.eng.Start()
	*r.val = 20
	r.sched.RunFor(time.Second)
	*r.val = 0
	r.sched.RunFor(time.Second)
	got := map[string]string{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]string{
		"policy.fires": "1", "policy.reverts": "1", "policy.rules": "1",
		"policy.active": "0", "policy.rollbacks": "0",
	} {
		if got[name] != want {
			t.Fatalf("%s = %q, want %q (all: %v)", name, got[name], want, got)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package proxy_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/tcp"
)

func registerNoop(cat *filter.Catalog, name string) {
	cat.Register(name, func() filter.Factory {
		return &fakeFilter{name: name,
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: name, Priority: filter.Normal})
				return err
			}}
	})
}

func TestServiceDefinitionAndApply(t *testing.T) {
	cat := filter.NewCatalog()
	registerNoop(cat, "f1")
	registerNoop(cat, "f2")
	rig := newRig(t, cat)
	p := rig.prox

	// Defining with unloaded filters fails.
	if out := p.Exec("service combo f1 f2"); !strings.HasPrefix(out, "error") {
		t.Fatalf("service with unloaded filters: %q", out)
	}
	p.Exec("load f1")
	p.Exec("load f2")
	if out := p.Exec("service combo f1 f2"); out != "" {
		t.Fatalf("service define: %q", out)
	}
	if out := p.Exec("services"); !strings.Contains(out, "combo = f1 f2") {
		t.Fatalf("services listing: %q", out)
	}

	// Apply the service to a wild-card key; a matching stream gets both
	// filters.
	if out := p.Exec("add combo 0.0.0.0 0 10.2.0.1 0"); out != "" {
		t.Fatalf("add service: %q", out)
	}
	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	rig.wStack.Connect(rig.mobile.Addr(), 2000)
	rig.sched.RunFor(time.Second)

	ss := rig.prox.Streams()
	if len(ss) != 1 {
		t.Fatalf("streams: %v", ss)
	}
	has := map[string]bool{}
	for _, f := range ss[0].Filters {
		has[f] = true
	}
	if !has["f1"] || !has["f2"] {
		t.Fatalf("service members not attached: %v", ss[0].Filters)
	}
	// The service name shows in the report with its wild-card key.
	rep := p.Exec("report")
	if !strings.Contains(rep, "combo") {
		t.Fatalf("report missing service:\n%s", rep)
	}
	if out := p.Exec("unservice combo"); out != "" {
		t.Fatalf("unservice: %q", out)
	}
	if out := p.Exec("services"); strings.Contains(out, "combo") {
		t.Fatalf("service survived unservice: %q", out)
	}
}

func TestServiceNameCannotShadowFilter(t *testing.T) {
	cat := filter.NewCatalog()
	registerNoop(cat, "f1")
	rig := newRig(t, cat)
	rig.prox.Exec("load f1")
	if out := rig.prox.Exec("service f1 f1"); !strings.HasPrefix(out, "error") {
		t.Fatalf("service shadowing a filter accepted: %q", out)
	}
}

func TestControlSessionAuth(t *testing.T) {
	cat := filter.NewCatalog()
	registerNoop(cat, "f1")
	rig := newRig(t, cat)
	policy := &proxy.ControlPolicy{Token: "sekrit"}
	sess := proxy.NewControlSession(rig.prox.Exec, policy)

	// Read-only commands work unauthenticated.
	if out := sess.Exec("report"); strings.HasPrefix(out, "error") {
		t.Fatalf("report blocked: %q", out)
	}
	// Mutations are gated.
	if out := sess.Exec("load f1"); !strings.Contains(out, "authentication required") {
		t.Fatalf("unauthenticated load: %q", out)
	}
	if out := sess.Exec("auth wrong"); !strings.Contains(out, "bad token") {
		t.Fatalf("wrong token: %q", out)
	}
	if out := sess.Exec("auth sekrit"); out != "" {
		t.Fatalf("auth: %q", out)
	}
	if out := sess.Exec("load f1"); out != "f1\n" {
		t.Fatalf("authenticated load: %q", out)
	}
	// Auth on a policy without a token is an error.
	open := proxy.NewControlSession(rig.prox.Exec, nil)
	if out := open.Exec("auth anything"); !strings.Contains(out, "not enabled") {
		t.Fatalf("auth without policy: %q", out)
	}
	// No policy: everything open (the thesis prototype's behaviour).
	if out := open.Exec("remove f1"); out != "" {
		t.Fatalf("open session remove: %q", out)
	}
}

func TestControlPolicyPeerACL(t *testing.T) {
	cat := filter.NewCatalog()
	registerNoop(cat, "f1")
	rig := newRig(t, cat)

	ctrlStack := tcp.NewStack(rig.router, tcp.Config{})
	rig.router.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		if rig.router.HasAddr(h.Dst) {
			ctrlStack.Deliver(h.Src, h.Dst, p)
		}
	})
	// Only the mobile (10.2.0.1) is allowed to control the proxy.
	policy := &proxy.ControlPolicy{AllowedPeers: []ip.Addr{rig.mobile.Addr()}}
	if err := proxy.ServeControlWithPolicy(ctrlStack, proxy.ControlPort, rig.prox.Exec, policy); err != nil {
		t.Fatal(err)
	}

	// Disallowed peer (the wired host) is reset.
	var wiredErr error
	wiredDone := false
	cw, _ := rig.wStack.Connect(ip.MustParseAddr("10.1.0.254"), proxy.ControlPort)
	cw.OnClose = func(err error) { wiredErr = err; wiredDone = true }
	cw.OnEstablished = func() { cw.Write([]byte("report\n")) }
	rig.sched.RunFor(2 * time.Second)
	if !wiredDone || wiredErr == nil {
		t.Fatalf("disallowed peer was not rejected: done=%v err=%v", wiredDone, wiredErr)
	}

	// Allowed peer works.
	var resp strings.Builder
	cm, _ := rig.mStack.Connect(ip.MustParseAddr("10.2.0.254"), proxy.ControlPort)
	cm.OnData = func(b []byte) { resp.Write(b) }
	cm.OnEstablished = func() { cm.Write([]byte("help\n")) }
	rig.sched.RunFor(2 * time.Second)
	if !strings.Contains(resp.String(), "commands:") {
		t.Fatalf("allowed peer got %q", resp.String())
	}
}

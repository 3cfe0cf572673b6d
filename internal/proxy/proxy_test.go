package proxy_test

import (
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// fakeFilter is a configurable test filter.
type fakeFilter struct {
	name  string
	onNew func(env filter.Env, k filter.Key, args []string) error
}

func (f *fakeFilter) Name() string        { return f.name }
func (f *fakeFilter) Description() string { return "test filter" }
func (f *fakeFilter) New(env filter.Env, k filter.Key, args []string) error {
	return f.onNew(env, k, args)
}

// testRig is a wired-host -> proxy -> mobile topology with one proxy
// hooked on the middle router, the path deployments run.
type testRig struct {
	sched          *sim.Scheduler
	net            *netsim.Network
	wired, mobile  *netsim.Node
	router         *netsim.Node
	prox           *proxy.Proxy
	catalog        *filter.Catalog
	wStack, mStack *tcp.Stack
}

func newRig(t *testing.T, catalog *filter.Catalog) *testRig {
	t.Helper()
	s := sim.NewScheduler(11)
	n := netsim.New(s)
	w := n.AddNode("wired")
	r := n.AddNode("proxy")
	m := n.AddNode("mobile")
	r.Forwarding = true
	n.Connect(w, ip.MustParseAddr("10.1.0.1"), r, ip.MustParseAddr("10.1.0.254"), netsim.LinkConfig{})
	lm := n.Connect(r, ip.MustParseAddr("10.2.0.254"), m, ip.MustParseAddr("10.2.0.1"), netsim.LinkConfig{})
	w.AddDefaultRoute(w.Ifaces()[0])
	m.AddDefaultRoute(m.Ifaces()[0])
	r.AddRoute(ip.MustParseAddr("10.2.0.0"), 24, lm.IfaceA())
	rig := &testRig{sched: s, net: n, wired: w, mobile: m, router: r, catalog: catalog}
	rig.prox = proxy.New(r, catalog)
	rig.wStack = tcp.NewStack(w, tcp.Config{})
	rig.mStack = tcp.NewStack(m, tcp.Config{})
	w.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { rig.wStack.Deliver(h.Src, h.Dst, p) })
	m.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { rig.mStack.Deliver(h.Src, h.Dst, p) })
	return rig
}

func TestLoadAddReportDelete(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("noop", func() filter.Factory {
		return &fakeFilter{name: "noop",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "noop", Priority: filter.Normal})
				return err
			}}
	})
	rig := newRig(t, cat)
	p := rig.prox

	if out := p.Exec("load noop"); out != "noop\n" {
		t.Fatalf("load output %q", out)
	}
	if out := p.Exec("load noop"); !strings.HasPrefix(out, "error") {
		t.Fatalf("duplicate load: %q", out)
	}
	if out := p.Exec("add noop 10.1.0.1 80 10.2.0.1 2000"); out != "" {
		t.Fatalf("add output %q", out)
	}
	rep := p.Exec("report")
	if !strings.Contains(rep, "noop") || !strings.Contains(rep, "10.1.0.1 80 -> 10.2.0.1 2000") {
		t.Fatalf("report missing entries:\n%s", rep)
	}
	if out := p.Exec("delete noop 10.1.0.1 80 10.2.0.1 2000"); out != "" {
		t.Fatalf("delete output %q", out)
	}
	rep = p.Exec("report noop")
	if strings.Contains(rep, "10.1.0.1") {
		t.Fatalf("deleted key still reported:\n%s", rep)
	}
	if out := p.Exec("remove noop"); out != "" {
		t.Fatalf("remove output %q", out)
	}
	if out := p.Exec("report noop"); !strings.HasPrefix(out, "error") {
		t.Fatalf("report on unloaded filter: %q", out)
	}
}

func TestUnknownCommandsAndErrors(t *testing.T) {
	rig := newRig(t, filter.NewCatalog())
	p := rig.prox
	if out := p.Exec("bogus"); !strings.HasPrefix(out, "error") {
		t.Errorf("bogus command: %q", out)
	}
	if out := p.Exec("load nothere"); !strings.HasPrefix(out, "error") {
		t.Errorf("load missing: %q", out)
	}
	if out := p.Exec("add nofilter 0.0.0.0 0 0.0.0.0 0"); !strings.HasPrefix(out, "error") {
		t.Errorf("add unloaded: %q", out)
	}
	if out := p.Exec("add x 1.2.3.4 99"); !strings.HasPrefix(out, "error") {
		t.Errorf("short add: %q", out)
	}
	if out := p.Exec(""); out != "" {
		t.Errorf("empty command: %q", out)
	}
}

func TestWildcardMatchingBuildsQueues(t *testing.T) {
	cat := filter.NewCatalog()
	var seenKeys []filter.Key
	cat.Register("watch", func() filter.Factory {
		return &fakeFilter{name: "watch",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				seenKeys = append(seenKeys, k)
				_, err := env.Attach(k, filter.Hooks{Filter: "watch", Priority: filter.Normal})
				return err
			}}
	})
	rig := newRig(t, cat)
	p := rig.prox
	p.Exec("load watch")
	// Wild-card: everything to the mobile, any port.
	p.Exec("add watch 0.0.0.0 0 10.2.0.1 0")

	// Drive a TCP connection through the proxy.
	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	client, _ := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	client.OnEstablished = func() { client.Write([]byte("hello")); client.Close() }
	rig.sched.RunFor(5e9)

	if len(seenKeys) != 1 {
		t.Fatalf("filter instantiated %d times, want 1 (keys: %v)", len(seenKeys), seenKeys)
	}
	k := seenKeys[0]
	if k.DstIP != rig.mobile.Addr() || k.DstPort != 2000 {
		t.Fatalf("instantiated on wrong key %v", k)
	}
	if k.IsWild() {
		t.Fatalf("trigger key is wild: %v", k)
	}
}

func TestInOutOrderingByPriority(t *testing.T) {
	var order []string
	mk := func(name string, prio filter.Priority) func() filter.Factory {
		return func() filter.Factory {
			return &fakeFilter{name: name,
				onNew: func(env filter.Env, k filter.Key, args []string) error {
					_, err := env.Attach(k, filter.Hooks{
						Filter: name, Priority: prio,
						In:  func(p *filter.Packet) { order = append(order, "in:"+name) },
						Out: func(p *filter.Packet) { order = append(order, "out:"+name) },
					})
					return err
				}}
		}
	}
	cat := filter.NewCatalog()
	cat.Register("hi", mk("hi", filter.High))
	cat.Register("mid", mk("mid", filter.Normal))
	cat.Register("lo", mk("lo", filter.Low))
	rig := newRig(t, cat)
	p := rig.prox
	for _, c := range []string{"load hi", "load mid", "load lo",
		"add lo 0.0.0.0 0 10.2.0.1 0",
		"add hi 0.0.0.0 0 10.2.0.1 0",
		"add mid 0.0.0.0 0 10.2.0.1 0"} {
		if out := p.Exec(c); out != "" && !strings.Contains(out, "\n") {
			t.Fatalf("%s: %q", c, out)
		}
	}
	// Send one UDP packet through (no TCP ports in key, but still a
	// stream key with ports 0... ports 0 are wild; use TCP instead).
	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	client, _ := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	_ = client
	rig.sched.RunFor(1e9)

	// Find the first full traversal (the SYN packet).
	if len(order) < 6 {
		t.Fatalf("order too short: %v", order)
	}
	want := []string{"in:hi", "in:mid", "in:lo", "out:lo", "out:mid", "out:hi"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("traversal order = %v, want %v", order[:6], want)
		}
	}
}

func TestFilterDropsPacket(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("blackhole", func() filter.Factory {
		return &fakeFilter{name: "blackhole",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "blackhole", Priority: filter.Normal,
					Out: func(p *filter.Packet) { p.Drop() }})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load blackhole")
	rig.prox.Exec("add blackhole 0.0.0.0 0 10.2.0.1 0")

	accepted := false
	rig.mStack.Listen(2000, func(c *tcp.Conn) { accepted = true })
	client, _ := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	_ = client
	rig.sched.RunFor(3e9)
	if accepted {
		t.Fatal("SYN crossed a blackhole filter")
	}
	if rig.prox.Stats.DroppedByFilter.Load() == 0 {
		t.Fatal("no drops counted")
	}
}

func TestModificationWithoutRemarshalBreaksChecksum(t *testing.T) {
	// A filter that rewrites the window but never remarshals leaves a
	// stale checksum; the receiving stack must discard the segment.
	// This is why the thesis's tcp filter exists.
	cat := filter.NewCatalog()
	cat.Register("careless", func() filter.Factory {
		return &fakeFilter{name: "careless",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "careless", Priority: filter.Normal,
					Out: func(p *filter.Packet) {
						if p.TCP != nil {
							p.TCP.Window = 17
							p.MarkDirty()
							// Deliberately no Remarshal.
						}
					}})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load careless")
	rig.prox.Exec("add careless 0.0.0.0 0 10.2.0.1 0")
	accepted := false
	rig.mStack.Listen(2000, func(c *tcp.Conn) { accepted = true })
	rig.wStack.Connect(rig.mobile.Addr(), 2000)
	rig.sched.RunFor(3e9)
	if accepted {
		t.Fatal("segment with stale checksum was accepted")
	}
}

func TestSpawnViaLauncherPattern(t *testing.T) {
	cat := filter.NewCatalog()
	spawned := false
	cat.Register("svc", func() filter.Factory {
		return &fakeFilter{name: "svc",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				spawned = true
				_, err := env.Attach(k, filter.Hooks{Filter: "svc", Priority: filter.Normal})
				return err
			}}
	})
	cat.Register("spawner", func() filter.Factory {
		return &fakeFilter{name: "spawner",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				return env.Spawn("svc", k, nil)
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load svc")
	rig.prox.Exec("load spawner")
	rig.prox.Exec("add spawner 0.0.0.0 0 10.2.0.1 0")
	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	rig.wStack.Connect(rig.mobile.Addr(), 2000)
	rig.sched.RunFor(1e9)
	if !spawned {
		t.Fatal("launcher-style spawn never happened")
	}
	rep := rig.prox.Exec("report svc")
	if !strings.Contains(rep, "10.2.0.1 2000") {
		t.Fatalf("spawned filter not in report:\n%s", rep)
	}
}

func TestAddExactKeyToActiveStream(t *testing.T) {
	cat := filter.NewCatalog()
	hits := 0
	cat.Register("count", func() filter.Factory {
		return &fakeFilter{name: "count",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "count", Priority: filter.Normal,
					In: func(p *filter.Packet) { hits++ }})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load count")
	var server *tcp.Conn
	rig.mStack.Listen(2000, func(c *tcp.Conn) { server = c })
	client, _ := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	client.OnEstablished = func() { client.Write([]byte("before")) }
	rig.sched.RunFor(1e9)
	if hits != 0 {
		t.Fatalf("filter counted %d packets before being added", hits)
	}
	// Add on the exact live key mid-stream.
	k := filter.Key{SrcIP: rig.wired.Addr(), SrcPort: client.LocalPort(),
		DstIP: rig.mobile.Addr(), DstPort: 2000}
	if err := rig.prox.AddFilter("count", k, nil); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte("after"))
	rig.sched.RunFor(1e9)
	if hits == 0 {
		t.Fatal("filter added to live stream never saw packets")
	}
	_ = server
}

func TestRemoveStreamClosesHooks(t *testing.T) {
	cat := filter.NewCatalog()
	closed := 0
	cat.Register("cl", func() filter.Factory {
		return &fakeFilter{name: "cl",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "cl", Priority: filter.Normal,
					OnClose: func() { closed++ }})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load cl")
	k := filter.Key{SrcIP: rig.wired.Addr(), SrcPort: 80, DstIP: rig.mobile.Addr(), DstPort: 2000}
	rig.prox.AddFilter("cl", k, nil)
	if len(rig.prox.Streams()) != 1 {
		t.Fatalf("streams = %v", rig.prox.Streams())
	}
	rig.prox.RemoveStream(k)
	if closed != 1 {
		t.Fatalf("OnClose called %d times", closed)
	}
	if len(rig.prox.Streams()) != 0 {
		t.Fatal("stream not removed")
	}
}

func TestControlOverSimulatedTCP(t *testing.T) {
	// Reproduce the shape of thesis Fig 5.3: telnet to port 12000 on
	// the proxy host and run commands over the simulated network.
	cat := filter.NewCatalog()
	cat.Register("noop", func() filter.Factory {
		return &fakeFilter{name: "noop",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "noop", Priority: filter.Normal})
				return err
			}}
	})
	rig := newRig(t, cat)
	// The proxy's control interface listens on the router node itself.
	ctrlStack := tcp.NewStack(rig.router, tcp.Config{})
	rig.router.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		if rig.router.HasAddr(h.Dst) {
			ctrlStack.Deliver(h.Src, h.Dst, p)
		}
	})
	if err := proxy.ServeControl(ctrlStack, proxy.ControlPort, rig.prox.Exec); err != nil {
		t.Fatal(err)
	}
	var resp strings.Builder
	client, err := rig.wStack.Connect(ip.MustParseAddr("10.1.0.254"), proxy.ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	client.OnData = func(b []byte) { resp.Write(b) }
	client.OnEstablished = func() {
		client.Write([]byte("load noop\nadd noop 10.1.0.1 7 10.2.0.1 1169\nreport\n"))
	}
	rig.sched.RunFor(5e9)
	got := resp.String()
	if !strings.Contains(got, "noop\n") || !strings.Contains(got, "10.1.0.1 7 -> 10.2.0.1 1169") {
		t.Fatalf("control session output:\n%s", got)
	}
}

func TestStreamsAccounting(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("noop", func() filter.Factory {
		return &fakeFilter{name: "noop",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{Filter: "noop", Priority: filter.Normal})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load noop")
	rig.prox.Exec("add noop 0.0.0.0 0 10.2.0.1 0")
	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	client, _ := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	client.OnEstablished = func() { client.Write(make([]byte, 5000)) }
	rig.sched.RunFor(5e9)
	ss := rig.prox.Streams()
	if len(ss) != 1 {
		t.Fatalf("streams = %v", ss)
	}
	if ss[0].Packets == 0 || ss[0].Bytes < 5000 {
		t.Fatalf("accounting: %+v", ss[0])
	}
	out := rig.prox.Exec("streams")
	if !strings.Contains(out, "noop") {
		t.Fatalf("streams command output: %q", out)
	}
}

func TestFiltersCommand(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("noop2", func() filter.Factory {
		return &fakeFilter{name: "noop2",
			onNew: func(env filter.Env, k filter.Key, args []string) error { return nil }}
	})
	cat.Register("other", func() filter.Factory {
		return &fakeFilter{name: "other",
			onNew: func(env filter.Env, k filter.Key, args []string) error { return nil }}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load noop2")
	out := rig.prox.Exec("filters")
	if !strings.Contains(out, "loaded: noop2") {
		t.Fatalf("filters output missing loaded:\n%s", out)
	}
	if !strings.Contains(out, "available: other") {
		t.Fatalf("filters output missing available:\n%s", out)
	}
}

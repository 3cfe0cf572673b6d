package kati_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/eem"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/kati"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// katiRig: a user workstation running Kati, a proxy router with an SP
// control port and an EEM server, and wired/mobile hosts with a live
// TCP stream through the proxy.
type katiRig struct {
	sched      *sim.Scheduler
	out        bytes.Buffer
	shell      *kati.Shell
	wStack     *tcp.Stack
	mStack     *tcp.Stack
	mobileAddr ip.Addr
	proxyAddr  string
}

func newKatiRig(t *testing.T) *katiRig {
	t.Helper()
	s := sim.NewScheduler(9)
	n := netsim.New(s)
	user := n.AddNode("user")
	r := n.AddNode("proxyhost")
	wired := n.AddNode("wired")
	mobile := n.AddNode("mobile")
	r.Forwarding = true

	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: time.Millisecond}
	lu := n.Connect(user, ip.MustParseAddr("10.0.9.1"), r, ip.MustParseAddr("10.0.9.254"), wire)
	lw := n.Connect(wired, ip.MustParseAddr("10.0.1.1"), r, ip.MustParseAddr("10.0.1.254"), wire)
	lm := n.Connect(r, ip.MustParseAddr("10.0.2.254"), mobile, ip.MustParseAddr("10.0.2.1"), wire)
	user.AddDefaultRoute(lu.IfaceA())
	wired.AddDefaultRoute(lw.IfaceA())
	mobile.AddDefaultRoute(lm.IfaceB())
	r.AddRoute(ip.MustParseAddr("10.0.2.0"), 24, lm.IfaceA())
	r.AddRoute(ip.MustParseAddr("10.0.1.0"), 24, lw.IfaceB())
	r.AddRoute(ip.MustParseAddr("10.0.9.0"), 24, lu.IfaceB())

	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	sp := proxy.New(r, cat)

	// Control plane on the proxy host: SP port 12000, EEM port 12001.
	ctrlStack := tcp.NewStack(r, tcp.Config{})
	r.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
		ctrlStack.Deliver(h.Src, h.Dst, p)
	})
	if err := proxy.ServeControl(ctrlStack, proxy.ControlPort, sp.Exec); err != nil {
		t.Fatal(err)
	}
	srv := eem.NewServer("proxyhost")
	srv.Interval = time.Second
	srv.AddSource(&eem.NodeSource{Node: r})
	if err := eem.ServeSim(ctrlStack, eem.DefaultPort, srv); err != nil {
		t.Fatal(err)
	}
	srv.StartSimTicker(s)

	// Data plane stacks.
	wStack := tcp.NewStack(wired, tcp.Config{})
	mStack := tcp.NewStack(mobile, tcp.Config{})
	wired.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { wStack.Deliver(h.Src, h.Dst, p) })
	mobile.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { mStack.Deliver(h.Src, h.Dst, p) })

	// Kati on the user workstation.
	userStack := tcp.NewStack(user, tcp.Config{})
	user.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { userStack.Deliver(h.Src, h.Dst, p) })

	rig := &katiRig{sched: s, wStack: wStack, mStack: mStack,
		mobileAddr: ip.MustParseAddr("10.0.2.1"), proxyAddr: "10.0.9.254"}

	spDial := func(addr string, onReply func(string)) (*kati.SPSession, error) {
		a, err := ip.ParseAddr(addr)
		if err != nil {
			return nil, err
		}
		c, err := userStack.Connect(a, proxy.ControlPort)
		if err != nil {
			return nil, err
		}
		c.OnData = func(b []byte) { onReply(string(b)) }
		return kati.NewSPSession(
			func(line string) error { return c.Write([]byte(line)) },
			func() { c.Close() },
		), nil
	}
	cm := eem.NewComma(eem.SimDialer(userStack))
	rig.shell = kati.New(&rig.out, spDial, cm)
	return rig
}

// run executes a shell command and lets the simulation settle.
func (r *katiRig) run(cmd string) {
	r.shell.Exec(cmd)
	r.sched.RunFor(500 * time.Millisecond)
}

func TestKatiSPControlSession(t *testing.T) {
	r := newKatiRig(t)
	r.run("sp " + r.proxyAddr)
	r.run("load tcp")
	r.run("load rdrop")
	r.run("add rdrop 10.0.1.1 7 10.0.2.1 1169 50")
	r.run("report")
	out := r.out.String()
	if !strings.Contains(out, "connected to service proxy") {
		t.Fatalf("no connect confirmation:\n%s", out)
	}
	if !strings.Contains(out, "rdrop") || !strings.Contains(out, "10.0.1.1 7 -> 10.0.2.1 1169") {
		t.Fatalf("report output missing:\n%s", out)
	}
	r.out.Reset()
	r.run("delete rdrop 10.0.1.1 7 10.0.2.1 1169")
	r.run("report rdrop")
	if strings.Contains(r.out.String(), "10.0.1.1") {
		t.Fatalf("deleted service still reported:\n%s", r.out.String())
	}
}

// TestKatiAddServiceAppears reproduces the Figs 7.3/7.4 interaction:
// a third party adds a service to a live stream from the shell, and
// the new service appears in the stream view.
func TestKatiAddServiceAppears(t *testing.T) {
	r := newKatiRig(t)
	r.run("sp " + r.proxyAddr)
	r.run("load tcp")
	r.run("load launcher")
	r.run("add launcher 10.0.1.1 0 10.0.2.1 0 tcp")

	// Start a live stream wired -> mobile through the proxy.
	r.mStack.Listen(5001, func(c *tcp.Conn) {})
	client, err := r.wStack.ConnectFrom(7, r.mobileAddr, 5001)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() { client.Write(make([]byte, 40_000)) }
	r.sched.RunFor(2 * time.Second)

	r.out.Reset()
	r.run("streams")
	first := r.out.String()
	if !strings.Contains(first, "tcp") {
		t.Fatalf("live stream not visible:\n%s", first)
	}
	if strings.Contains(first, "wsize") {
		t.Fatalf("wsize present before add:\n%s", first)
	}

	// Third-party adds a wsize cap to the live stream.
	r.run("load wsize")
	key := fmt.Sprintf("10.0.1.1 %d 10.0.2.1 5001", client.LocalPort())
	r.run("add wsize " + key + " cap 4096")
	r.out.Reset()
	r.run("streams")
	second := r.out.String()
	if !strings.Contains(second, "wsize") {
		t.Fatalf("new service did not appear (Fig 7.4):\n%s", second)
	}
}

func TestKatiEEMCommands(t *testing.T) {
	r := newKatiRig(t)
	r.run("vars " + r.proxyAddr)
	if !strings.Contains(r.out.String(), "sysUpTime") {
		t.Fatalf("vars listing missing sysUpTime:\n%s", r.out.String())
	}
	r.out.Reset()
	r.run("get " + r.proxyAddr + " sysName")
	if !strings.Contains(r.out.String(), "sysName = proxyhost") {
		t.Fatalf("get output:\n%s", r.out.String())
	}
	r.out.Reset()
	r.run("watch " + r.proxyAddr + " sysUpTime GTE 0")
	r.sched.RunFor(3 * time.Second)
	r.run("status")
	out := r.out.String()
	if !strings.Contains(out, "watching") || !strings.Contains(out, "sysUpTime") {
		t.Fatalf("watch/status output:\n%s", out)
	}
	if !strings.Contains(out, "[eem]") {
		t.Fatalf("no interrupt notification printed:\n%s", out)
	}
	r.out.Reset()
	r.run("unwatch " + r.proxyAddr + " sysUpTime")
	r.run("status")
	if !strings.Contains(r.out.String(), "nothing watched") {
		t.Fatalf("unwatch failed:\n%s", r.out.String())
	}
}

func TestKatiErrorsAndHelp(t *testing.T) {
	r := newKatiRig(t)
	r.run("bogus")
	if !strings.Contains(r.out.String(), "unknown command") {
		t.Fatal("no error for unknown command")
	}
	r.out.Reset()
	r.run("streams")
	if !strings.Contains(r.out.String(), "no proxy selected") {
		t.Fatal("no error for command without proxy")
	}
	r.out.Reset()
	r.run("help")
	if !strings.Contains(r.out.String(), "kati commands") {
		t.Fatal("help missing")
	}
	r.out.Reset()
	r.run("sp 1.2.3")
	if !strings.Contains(r.out.String(), "connect") {
		t.Fatalf("bad address not reported:\n%s", r.out.String())
	}
}

func TestKatiMultipleProxies(t *testing.T) {
	r := newKatiRig(t)
	r.run("sp " + r.proxyAddr)
	r.run("sps")
	if !strings.Contains(r.out.String(), "* "+r.proxyAddr) {
		t.Fatalf("sps listing:\n%s", r.out.String())
	}
	r.out.Reset()
	r.run("use 9.9.9.9")
	if !strings.Contains(r.out.String(), "not connected") {
		t.Fatal("use of unknown proxy accepted")
	}
}

// TestKatiValueAndIndexGrammar: watch bounds and get indices are whole
// tokens, read by the grammar policy rules use. "2000x" is a string
// bound — it cannot order a numeric variable, so the watch never fires
// — and "1x" is no interface index.
func TestKatiValueAndIndexGrammar(t *testing.T) {
	r := newKatiRig(t)
	r.run("watch " + r.proxyAddr + " ifMtu LT 2000x")
	r.sched.RunFor(3 * time.Second)
	if out := r.out.String(); strings.Contains(out, "ifMtu = ") {
		t.Fatalf("string bound 2000x ordered ifMtu:\n%s", out)
	}
	r.out.Reset()
	r.run("watch " + r.proxyAddr + " ifSpeed LT +200000000")
	r.sched.RunFor(3 * time.Second)
	if out := r.out.String(); !strings.Contains(out, "ifSpeed = 100000000") {
		t.Fatalf("numeric bound +200000000 did not fire:\n%s", out)
	}
	r.out.Reset()
	r.run("get " + r.proxyAddr + " ifDescr 1x")
	if out := r.out.String(); !strings.Contains(out, `kati: bad index "1x"`) {
		t.Fatalf("index 1x accepted:\n%s", out)
	}
	r.out.Reset()
	r.run("get " + r.proxyAddr + " ifDescr 1")
	if out := r.out.String(); !strings.Contains(out, "ifDescr[1] = if1(") {
		t.Fatalf("get index 1:\n%s", out)
	}
}

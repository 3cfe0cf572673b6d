// Handoff: Mobile IP (thesis §2.1) keeping a TCP download alive while
// the mobile moves between two foreign agents — and the *services*
// moving with it. Each foreign agent runs a service proxy; the download
// is serviced on FA1 by tcp + ttsf + a window cap, and at handoff the
// stream is live-migrated — filter state included — to FA2's proxy, so
// the proxy follows the mobile instead of servicing a cell the mobile
// has left. Packets in flight during the gap are lost and TCP recovers;
// the home agent re-tunnels to the new care-of address as soon as the
// mobile re-registers, and the re-tunneled packets come up through
// FA2's (now stateful) filters.
//
// The example asserts the migration was real: the payload arrives
// byte-identical (SHA-256), exactly one proxy owns the stream's
// bindings afterwards, and the TTSF byte counters on FA2 continue from
// where FA1 froze them instead of restarting at zero.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/migrate"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func main() {
	s := sim.NewScheduler(77)
	n := netsim.New(s)
	corr := n.AddNode("server")
	inet := n.AddNode("internet")
	haN := n.AddNode("home-agent")
	fa1N := n.AddNode("fa1")
	fa2N := n.AddNode("fa2")
	mob := n.AddNode("mobile")
	for _, nd := range []*netsim.Node{inet, haN, fa1N, fa2N} {
		nd.Forwarding = true
	}

	var (
		corrA   = ip.MustParseAddr("1.1.1.1")
		haA     = ip.MustParseAddr("10.0.0.254")
		mobHome = ip.MustParseAddr("10.0.0.99")
		fa1A    = ip.MustParseAddr("20.0.0.254")
		fa2A    = ip.MustParseAddr("30.0.0.254")
	)
	wire := netsim.LinkConfig{Bandwidth: 100e6, Delay: 5 * time.Millisecond}
	wireless := netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond}

	lc := n.Connect(corr, corrA, inet, ip.MustParseAddr("1.1.1.254"), wire)
	lh := n.Connect(inet, ip.MustParseAddr("10.0.1.1"), haN, haA, wire)
	l1 := n.Connect(inet, ip.MustParseAddr("20.0.1.1"), fa1N, fa1A, wire)
	l2 := n.Connect(inet, ip.MustParseAddr("30.0.1.1"), fa2N, fa2A, wire)
	corr.AddDefaultRoute(lc.IfaceA())
	inet.AddRoute(ip.MustParseAddr("10.0.0.0"), 16, lh.IfaceA())
	inet.AddRoute(ip.MustParseAddr("20.0.0.0"), 16, l1.IfaceA())
	inet.AddRoute(ip.MustParseAddr("30.0.0.0"), 16, l2.IfaceA())
	inet.AddRoute(ip.MustParseAddr("1.1.1.0"), 24, lc.IfaceB())
	haN.AddDefaultRoute(lh.IfaceB())
	fa1N.AddDefaultRoute(l1.IfaceB())
	fa2N.AddDefaultRoute(l2.IfaceB())

	_ = mobileip.NewHomeAgent(haN)
	fa1 := mobileip.NewForeignAgent(fa1N, fa1A)
	fa2 := mobileip.NewForeignAgent(fa2N, fa2A)
	m := mobileip.NewMobile(mob, haA, mobHome)
	m.OnRegistered = func(careOf ip.Addr) {
		fmt.Printf("t=%-8v mobile registered via care-of %v\n", s.Now(), careOf)
	}
	fa1.StartAdvertising(300 * time.Millisecond)
	fa2.StartAdvertising(300 * time.Millisecond)

	// A service proxy on each foreign agent: decapsulated tunnel traffic
	// and forwarded return traffic both pass its filters.
	bus := obs.NewBus(s, 4096)
	metrics := obs.NewRegistry()
	newProxy := func(nd *netsim.Node) *proxy.Proxy {
		cat := filter.NewCatalog()
		filters.RegisterAll(cat)
		p := proxy.New(nd, cat)
		p.SetObs(bus, metrics)
		return p
	}
	sp1, sp2 := newProxy(fa1N), newProxy(fa2N)

	// Migration managers on both agents, talking over the wired segment
	// (the care-of addresses are mutually routable through the internet
	// node regardless of where the mobile is attached).
	newCtrl := func(nd *netsim.Node) *tcp.Stack {
		st := tcp.NewStack(nd, tcp.Config{})
		nd.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) {
			st.Deliver(h.Src, h.Dst, p)
		})
		return st
	}
	mgr1 := migrate.NewManager(migrate.Config{
		Name: "fa1", ID: 1, Sched: s, Proxy: sp1, Stack: newCtrl(fa1N), Bus: bus,
	})
	mgr2 := migrate.NewManager(migrate.Config{
		Name: "fa2", ID: 2, Sched: s, Proxy: sp2, Stack: newCtrl(fa2N), Bus: bus,
	})
	for _, mg := range []*migrate.Manager{mgr1, mgr2} {
		if err := mg.Serve(); err != nil {
			fmt.Println("FAIL: migrate serve:", err)
			os.Exit(1)
		}
	}
	sp1.RegisterCommand("migrate", mgr1.Command)
	sp2.RegisterCommand("migrate", mgr2.Command)

	mustCmd := func(p *proxy.Proxy, line string) string {
		out := p.Exec(line)
		if strings.HasPrefix(out, "error") {
			fmt.Printf("FAIL: command %q: %s", line, out)
			os.Exit(1)
		}
		return out
	}

	// Service the download on FA1: passive tcp tracking, the TTSF
	// sequence-translation filter, and a receive-window cap — the filters
	// whose state must survive the move to FA2.
	const clientPort = 5000
	key := filter.Key{SrcIP: corrA, SrcPort: 80, DstIP: mobHome, DstPort: clientPort}
	keyStr := fmt.Sprintf("%v %d %v %d", corrA, 80, mobHome, clientPort)
	for _, c := range []string{
		"load tcp", "load ttsf", "load wsize",
		"add tcp " + keyStr, "add ttsf " + keyStr, "add wsize " + keyStr + " cap 16000",
	} {
		mustCmd(sp1, c)
	}

	// A download from the correspondent to the mobile's home address.
	corrTCP := tcp.NewStack(corr, tcp.Config{})
	mobTCP := tcp.NewStack(mob, tcp.Config{})
	corr.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { corrTCP.Deliver(h.Src, h.Dst, p) })
	mob.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { mobTCP.Deliver(h.Src, h.Dst, p) })

	payload := make([]byte, 1_000_000)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	wantSum := sha256.Sum256(payload)

	// Attach the mobile to cell 1.
	cell := n.Connect(fa1N, ip.MustParseAddr("20.0.0.1"), mob, mobHome, wireless)
	mob.AddDefaultRoute(mob.Ifaces()[0])

	var received []byte
	corrTCP.Listen(80, func(c *tcp.Conn) { c.Write(payload); c.Close() })
	s.RunFor(2 * time.Second) // let registration settle
	client, err := mobTCP.ConnectFrom(clientPort, corrA, 80)
	if err != nil {
		fmt.Println("FAIL: connect:", err)
		os.Exit(1)
	}
	client.OnData = func(b []byte) { received = append(received, b...) }

	report := func(when string) {
		fmt.Printf("t=%-8v %-22s received %7d B, sender state %v\n",
			s.Now(), when, len(received), client.State())
	}

	// Sample the TTSF instance continuously: its byte counters prove
	// whether the state moved or restarted. The last sample before the
	// post-download teardown is the one the assertions use.
	var preBytes, postBytes int64
	var postOK bool
	var probe func()
	probe = func() {
		if st, ok := filters.TTSFStatsFor(key); ok {
			postBytes, postOK = st.BytesIn, true
		}
		s.After(50*time.Millisecond, probe)
	}
	s.After(0, probe)

	s.RunFor(3 * time.Second)
	report("mid-download in cell 1")

	// Handoff, services first: freeze the stream on FA1 and hand its
	// filters — state included — to FA2, then move the mobile.
	if st, ok := filters.TTSFStatsFor(key); ok {
		preBytes = st.BytesIn
	}
	fmt.Printf("t=%-8v MIGRATE: %s\n", s.Now(),
		strings.TrimSpace(mustCmd(sp1, fmt.Sprintf("migrate %s %v", keyStr, fa2A))))
	s.RunFor(200 * time.Millisecond)

	fmt.Printf("t=%-8v HANDOFF: mobile leaves cell 1\n", s.Now())
	n.Disconnect(cell)
	mob.ClearRoutes()
	s.RunFor(500 * time.Millisecond)
	n.Connect(fa2N, ip.MustParseAddr("30.0.0.1"), mob, mobHome, wireless)
	mob.AddDefaultRoute(mob.Ifaces()[0])
	m.Solicit()
	fmt.Printf("t=%-8v mobile attaches to cell 2, soliciting agents\n", s.Now())

	s.RunFor(3 * time.Second)
	report("after handoff")
	s.RunFor(10 * time.Second)
	report("download complete")

	// The migration must have been real, not cosmetic.
	fail := false
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fail = true
			fmt.Printf("FAIL: "+format+"\n", args...)
		}
	}
	check(len(received) == len(payload) && sha256.Sum256(received) == wantSum,
		"payload corrupt: received %d of %d bytes", len(received), len(payload))
	b1, b2 := sp1.StreamBindings(key), sp2.StreamBindings(key)
	check(b1 == 0 && b2 == 3,
		"ownership invariant violated: FA1 holds %d bindings, FA2 holds %d (want 0 and 3)", b1, b2)
	a, c, r, ab := mgr1.Counters()
	check(a == 1 && c == 1 && r == 0 && ab == 0,
		"FA1 migration outcome attempts=%d completed=%d resumed=%d aborted=%d, want one clean completion", a, c, r, ab)
	check(preBytes > 0, "ttsf saw no bytes before the freeze")
	check(postOK && postBytes >= preBytes,
		"ttsf state restarted instead of migrating: pre=%d post=%d ok=%v", preBytes, postBytes, postOK)
	if fail {
		os.Exit(1)
	}

	fmt.Printf("\nhandoffs: %d, registrations: %d; stream migrated FA1->FA2 (bindings %d->%d, ttsf bytes %d->%d), payload sha256 OK\n",
		m.Handoffs, m.Registrations, b1, b2, preBytes, postBytes)
}

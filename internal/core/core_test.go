package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/eem"
	"repro/internal/flowlog"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/workload"
)

func TestSystemQuickstartTransfer(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("add launcher 11.11.10.99 0 11.11.10.10 0 tcp")

	payload := bytes.Repeat([]byte("comma"), 10_000)
	res, err := sys.Transfer(payload, 7, 5001, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("transfer incomplete: %d of %d", len(res.Received), res.Sent)
	}
	if !bytes.Equal(res.Received, payload) {
		t.Fatal("payload corrupted")
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

// TestCheckedTransferVerdicts pins the three outcomes scenario legs
// branch on: clean (no error), incomplete (error, result kept so the
// leg can still be printed), and could-not-start (error, nil result).
func TestCheckedTransferVerdicts(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	payload := bytes.Repeat([]byte("comma"), 10_000)
	if res, err := sys.CheckedTransfer("leg clean", payload, 7, 5001, 120*time.Second); err != nil || !res.Completed {
		t.Fatalf("clean transfer: res=%+v err=%v", res, err)
	}
	res, err := sys.CheckedTransfer("leg short", payload, 8, 5002, time.Millisecond)
	if err == nil || res == nil || !strings.Contains(err.Error(), "leg short corrupt or incomplete: completed=false") {
		t.Fatalf("transfer cut off by its deadline: res=%v err=%v", res, err)
	}
	if res, err := sys.CheckedTransfer("leg again", payload, 9, 5001, time.Second); err == nil || res != nil ||
		!strings.HasPrefix(err.Error(), "leg again: ") {
		t.Fatalf("transfer to a port already listened on: res=%v err=%v", res, err)
	}
}

// TestTransferReceivedAliasing pins TransferResult.Received: on an
// intact transfer it is the payload itself (same backing array, no
// copy); on a leg whose filters excise or rewrite bytes it is a buffer
// of its own holding what arrived, the payload is left as it was, and
// CheckedTransfer reports the leg.
func TestTransferReceivedAliasing(t *testing.T) {
	payload := make([]byte, 200_000)
	rand.New(rand.NewSource(29)).Read(payload)
	orig := bytes.Clone(payload)

	sys := core.NewSystem(core.Config{})
	res, err := sys.CheckedTransfer("intact", payload, 7, 5001, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Received, orig) || unsafe.SliceData(res.Received) != unsafe.SliceData(payload) {
		t.Fatal("intact transfer: Received is not the payload's own bytes")
	}

	for _, leg := range []struct {
		name, filters string
		intactPrefix  bool // the first divergence comes after some matching bytes
	}{
		// Whole segments vanish under the TTSF (E10's setup), after an
		// intact prefix: the matched bytes move to Received's own buffer.
		{"rdrop", "rdrop:25", true},
		// Every segment is re-framed, from the first byte on.
		{"comp", "comp", false},
	} {
		t.Run(leg.name, func(t *testing.T) {
			sys := core.NewSystem(core.Config{
				Seed:     10,
				Wireless: netsim.LinkConfig{Bandwidth: 5e6, Delay: 10 * time.Millisecond},
			})
			for _, c := range []string{"load tcp", "load ttsf", "load rdrop", "load comp", "load launcher",
				"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf " + leg.filters} {
				sys.MustCommand(c)
			}
			// The stream the mobile was sent, rebuilt from the segments
			// its stack accepted: what the application must have got.
			var isn uint32
			var arrived []byte
			sys.MobileTCP.OnSegment = func(send bool, _, _ ip.Addr, seg *tcp.Segment) {
				switch {
				case send || seg.DstPort != 5001:
				case seg.Flags&tcp.FlagSYN != 0:
					isn = seg.Seq + 1
				case len(seg.Payload) > 0 && int32(seg.Seq-isn) >= 0:
					off := int(seg.Seq - isn)
					if end := off + len(seg.Payload); end > len(arrived) {
						arrived = append(arrived, make([]byte, end-len(arrived))...)
					}
					copy(arrived[off:], seg.Payload)
				}
			}
			res, err := sys.CheckedTransfer(leg.name, payload, 7, 5001, 600*time.Second)
			if err == nil || res == nil {
				t.Fatalf("CheckedTransfer accepted a leg that altered the stream: res=%v err=%v", res, err)
			}
			if !bytes.Equal(payload, orig) {
				t.Fatal("the payload changed")
			}
			if len(arrived) == 0 || !bytes.Equal(res.Received, arrived) {
				t.Fatalf("Received holds %d bytes, not the %d that arrived", len(res.Received), len(arrived))
			}
			if unsafe.SliceData(res.Received) == unsafe.SliceData(payload) {
				t.Fatal("Received shares the payload's backing array")
			}
			if got := res.Received[0] == orig[0]; got != leg.intactPrefix {
				t.Fatalf("leg starts intact = %v, want %v: the test no longer covers its divergence", got, leg.intactPrefix)
			}
		})
	}
}

// TestTopologies builds every Topology value and carries 10 KB across
// it intact; the parts a shape documents are there for that shape and
// nil for every other, and no shape arms a facility (migration is
// ArmMigration's). One value per shape is what makes a half-built
// combination (an LTE leg beside a peer) impossible to ask for.
func TestTopologies(t *testing.T) {
	rows := []struct {
		name            string
		topo            core.Topology
		peer, lte, user bool
	}{
		{"reference", core.TopoReference, false, false, false},
		{"kati", core.TopoKati, false, false, true},
		{"double", core.TopoDouble, true, false, false},
		{"mmwave-lte", core.TopoMMWaveLTE, false, true, false},
	}
	payload := bytes.Repeat([]byte("comma"), 2000)
	for i, row := range rows {
		row := row
		if row.topo != core.Topology(i) {
			t.Fatalf("row %d is %s: the table must list every Topology value in order", i, row.name)
		}
		t.Run(row.name, func(t *testing.T) {
			sys := core.NewSystem(core.Config{Topology: row.topo})
			if _, err := sys.CheckedTransfer(row.name, payload, 7, 5001, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			if got := sys.Peer != nil; got != row.peer {
				t.Errorf("Peer present = %v, want %v", got, row.peer)
			}
			if sys.Migrate != nil || sys.Peer != nil && (sys.Peer.Migrate != nil || sys.Peer.Ctrl != nil) {
				t.Error("the topology armed migration or a peer control stack")
			}
			if got := sys.LTELink != nil; got != row.lte {
				t.Errorf("LTELink present = %v, want %v", got, row.lte)
			}
			if got := sys.User != nil && sys.UserTCP != nil; got != row.user {
				t.Errorf("User present = %v, want %v", got, row.user)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Topology %d built: add its row above", len(rows))
		}
	}()
	core.NewSystem(core.Config{Topology: core.Topology(len(rows))})
}

func TestSystemDoubleProxyCompression(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Topology: core.TopoDouble,
		Wireless: netsim.LinkConfig{Bandwidth: 1e6, Delay: 20 * time.Millisecond},
	})
	for _, c := range []string{"load tcp", "load ttsf", "load comp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf comp"} {
		sys.MustCommand(c)
	}
	for _, c := range []string{"load tcp", "load ttsf", "load decomp", "load launcher",
		"add launcher 11.11.10.99 0 11.11.10.10 0 tcp ttsf decomp"} {
		sys.Peer.MustCommand(c)
	}
	payload := bytes.Repeat([]byte("all work and no play makes jack a dull boy. "), 2000)
	res, err := sys.Transfer(payload, 7, 5001, 300*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !bytes.Equal(res.Received, payload) {
		t.Fatalf("compressed transfer failed: %d of %d", len(res.Received), res.Sent)
	}
	if carried := sys.Wireless.StatsAB().Bytes; carried > int64(len(payload))/2 {
		t.Fatalf("wireless carried %d bytes for %d payload", carried, len(payload))
	}
}

func TestSystemEEMReachable(t *testing.T) {
	sys := core.NewSystem(core.Config{Topology: core.TopoKati, EEMInterval: time.Second})
	client := eem.NewComma(eem.SimDialer(sys.UserTCP))
	var got eem.Value
	client.GetValueOnce(eem.ID{Var: "sysName", Server: "11.11.9.1"}, func(v eem.Value, err error) {
		if err != nil {
			t.Errorf("poll: %v", err)
		}
		got = v
	})
	sys.Sched.RunFor(2 * time.Second)
	if got.S != "proxy" {
		t.Fatalf("sysName = %q", got.S)
	}
}

// TestFiltersReadTheEEMTable: a filter's Env.Metric and an EEM client
// read one variable table — every numeric variable the proxy host's
// EEM server lists, at every interface index, at several instants of a
// bulk transfer, link.* and flow.* included.
func TestFiltersReadTheEEMTable(t *testing.T) {
	sys := core.NewSystem(core.Config{Topology: core.TopoMMWaveLTE})
	var sunk int
	if err := workload.ServeSink(sys.MobileTCP, 5001, &sunk); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.StartBulk(sys.WiredTCP, core.MobileAddr, 5001, 1<<20); err != nil {
		t.Fatal(err)
	}
	ifs := len(sys.ProxyHost.Ifaces())
	for step := 0; step < 4; step++ {
		sys.Sched.RunFor(700 * time.Millisecond)
		for _, name := range sys.EEM.Variables() {
			for i := 0; i < ifs; i++ {
				v, err := sys.EEM.Get(name, i)
				if err != nil {
					t.Fatalf("EEM %s[%d]: %v", name, i, err)
				}
				want, numeric := v.Float()
				if !numeric {
					continue
				}
				if got, ok := sys.Proxy.Metric(name, i); !ok || got != want {
					t.Fatalf("t=%v: filter reads %s[%d] = %v (ok=%v), EEM reads %v",
						sys.Sched.Now(), name, i, got, ok, want)
				}
			}
		}
	}
	if bw, _ := sys.Proxy.Metric("link.bw", 1); bw <= 0 {
		t.Fatalf("link.bw[1] = %v", bw)
	}
	if rtt, _ := sys.Proxy.Metric("flow.rtt", 0); rtt <= 0 || sunk == 0 {
		t.Fatalf("no traffic measured: flow.rtt = %v, %d bytes delivered", rtt, sunk)
	}
}

func TestMustCommandPanicsOnError(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("MustCommand did not panic on error")
		}
	}()
	sys.MustCommand("load nonexistent-filter")
}

func TestReportThroughControlPort(t *testing.T) {
	// The SP control port on the proxy host answers over the simulated
	// network, reproducing the thesis's telnet interface end to end.
	sys := core.NewSystem(core.Config{})
	sys.MustCommand("load tcp")
	conn, err := sys.WiredTCP.Connect(core.ProxyCtrlAddr, 12000)
	if err != nil {
		t.Fatal(err)
	}
	var resp strings.Builder
	conn.OnData = func(b []byte) { resp.Write(b) }
	conn.OnEstablished = func() { conn.Write([]byte("report\n")) }
	sys.Sched.RunFor(2 * time.Second)
	if !strings.Contains(resp.String(), "tcp") {
		t.Fatalf("control response: %q", resp.String())
	}
}

// TestSilentFlowAgesWithoutTraffic: a flow that stops without FIN or
// RST, with no segment after it anywhere, is closed idle once the flow
// log's timeout has passed — the `flows` listing and the EEM's
// flow.active say so although no later packet went through the table.
func TestSilentFlowAgesWithoutTraffic(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	// One data segment towards an address nobody holds: it opens a flow
	// and draws no answer.
	src, dst := core.WiredAddr, ip.MustParseAddr("11.11.10.77")
	seg := tcp.Segment{SrcPort: 4000, DstPort: 5001, Seq: 1000, Ack: 1,
		Flags: tcp.FlagACK, Window: 8760, Payload: []byte("last words")}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	sys.ProxyHost.PacketHook()(raw, sys.ProxyHost.Ifaces()[0])

	active := func() int64 {
		t.Helper()
		v, err := sys.EEM.Get("flow.active", 0)
		if err != nil {
			t.Fatal(err)
		}
		return v.L
	}
	const flow = "11.11.10.99 4000 -> 11.11.10.77 5001"
	sys.Sched.RunFor(time.Second)
	if n, out := active(), sys.MustCommand("flows"); n != 1 || !strings.Contains(out, flow+"  active") {
		t.Fatalf("flow.active = %d, want 1; flows:\n%s", n, out)
	}
	sys.Sched.RunFor(flowlog.DefaultIdleTimeout)
	if n := active(); n != 0 {
		t.Fatalf("flow.active = %d after the idle timeout, want 0", n)
	}
	if out := sys.MustCommand("flows"); !strings.Contains(out, "flows: 0 active, 1 closed") || !strings.Contains(out, flow+"  idle") {
		t.Fatalf("flows after the idle timeout:\n%s", out)
	}
}

// TestFlowVarsReadAllocatesNothing: after a transfer, one read of all
// twelve flow.* variables through the EEM allocates nothing. A site has
// one proxy and so one flow log, read in place: the read ages it (an
// LRU-head check) and copies its counters.
func TestFlowVarsReadAllocatesNothing(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 3})
	sys.MustCommand("load tcp")
	sys.MustCommand("add tcp 0.0.0.0 0 0.0.0.0 0")
	if res, err := sys.Transfer(make([]byte, 20000), 7, 5001, 10*time.Second); err != nil || !res.Completed {
		t.Fatalf("transfer: err=%v res=%+v", err, res)
	}
	names := []string{
		"flow.active", "flow.opened", "flow.closed", "flow.evicted",
		"flow.pkts", "flow.data_pkts", "flow.retrans", "flow.zero_win",
		"flow.retrans_ratio", "flow.zero_win_rate", "flow.rtt_mean_ms",
		"flow.rtt",
	}
	read := func() {
		for _, name := range names {
			if _, err := sys.EEM.Get(name, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	read() // the windowed ratios' first read opens their windows
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("one read of the %d flow.* variables allocates %.1f times, want 0", len(names), allocs)
	}
}

// TestRelayComposesWithSite: the I-TCP relay armed on a site takes only
// the connections it relays. The host's SP port still answers over TCP,
// a stream to another port still runs through the plane's filters, and
// a transfer to the relayed port is terminated at the proxy host and
// re-originated from it, past the plane.
func TestRelayComposesWithSite(t *testing.T) {
	sys := core.NewSystem(core.Config{})
	relay := sys.ArmRelay(sys.Site, 5001)
	sys.MustCommand("load tcp")
	sys.MustCommand("load launcher")
	sys.MustCommand("add launcher 11.11.10.99 0 11.11.10.10 0 tcp")

	conn, err := sys.WiredTCP.Connect(core.ProxyCtrlAddr, 12000)
	if err != nil {
		t.Fatal(err)
	}
	var resp strings.Builder
	conn.OnData = func(b []byte) { resp.Write(b) }
	conn.OnEstablished = func() { conn.Write([]byte("report\n")) }
	sys.Sched.RunFor(2 * time.Second)
	if !strings.Contains(resp.String(), "launcher") {
		t.Fatalf("SP port behind the relay answered %q", resp.String())
	}

	payload := bytes.Repeat([]byte("comma"), 10_000)
	if _, err := sys.CheckedTransfer("leg 5002", payload, 7, 5002, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	filtered := sys.Proxy.Stats.Filtered
	if filtered == 0 {
		t.Fatal("a stream to an unrelayed port bypassed the plane's filters")
	}
	if _, err := sys.CheckedTransfer("leg 5001", payload, 8, 5001, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if relay.Stats.Accepted != 1 {
		t.Fatalf("relay accepted %d connections, want 1", relay.Stats.Accepted)
	}
	if got := sys.Proxy.Stats.Filtered; got != filtered {
		t.Fatalf("the relayed stream reached the plane's filters: filtered %d → %d", filtered, got)
	}
}

// TestRelayOnPeerSite: a site without a control stack — TopoDouble's
// far proxy — gets one when the relay is armed on it.
func TestRelayOnPeerSite(t *testing.T) {
	sys := core.NewSystem(core.Config{Topology: core.TopoDouble})
	relay := sys.ArmRelay(sys.Peer, 5001)
	if _, err := sys.CheckedTransfer("leg", bytes.Repeat([]byte("comma"), 10_000), 7, 5001, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if sys.Peer.Ctrl == nil || relay.Stats.Accepted != 1 {
		t.Fatalf("peer relay: control stack %v, accepted %d", sys.Peer.Ctrl != nil, relay.Stats.Accepted)
	}
}

// TestArmMigration: ArmMigration on TopoDouble gives both Sites a
// manager and a "migrate" SP command and the peer a control stack, and
// a stream migrated over it mid-transfer arrives intact with the
// source counting one completion. Without a Peer it panics.
func TestArmMigration(t *testing.T) {
	sys := core.NewSystem(core.Config{Topology: core.TopoDouble})
	const usage = "error: usage: migrate"
	if strings.HasPrefix(sys.Proxy.Exec("migrate"), usage) {
		t.Fatal("TopoDouble has a migrate command before ArmMigration")
	}
	sys.ArmMigration()
	for _, st := range []*core.Site{sys.Site, sys.Peer} {
		if st.Migrate == nil {
			t.Fatal("a site has no migration manager")
		}
		if out := st.Proxy.Exec("migrate"); !strings.HasPrefix(out, usage) {
			t.Fatalf("migrate command answered %q", out)
		}
	}
	if sys.Peer.Ctrl == nil {
		t.Fatal("the peer has no control stack")
	}

	const key = "11.11.10.99 7 11.11.10.10 5001"
	for _, c := range []string{"load tcp", "load ttsf", "add tcp " + key, "add ttsf " + key} {
		sys.MustCommand(c)
	}
	var cmdOut string
	sys.Sched.After(300*time.Millisecond, func() {
		cmdOut = sys.Proxy.Exec("migrate " + key + " 11.11.11.2")
	})
	if _, err := sys.CheckedTransfer("migrated leg", bytes.Repeat([]byte("comma"), 40_000), 7, 5001, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cmdOut, "migrating") {
		t.Fatalf("migrate command answered %q", cmdOut)
	}
	if a, c, r, ab := sys.Migrate.Counters(); a != 1 || c != 1 || r != 0 || ab != 0 {
		t.Fatalf("source outcome attempts=%d completed=%d resumed=%d aborted=%d, want 1/1/0/0", a, c, r, ab)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ArmMigration without a Peer did not panic")
		}
	}()
	core.NewSystem(core.Config{}).ArmMigration()
}

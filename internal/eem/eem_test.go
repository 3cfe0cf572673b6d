package eem_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/eem"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// eemRig: a client host and a server host joined by one link, with an
// EEM server (node-source-backed) on the server host.
type eemRig struct {
	sched        *sim.Scheduler
	net          *netsim.Network
	cHost, sHost *netsim.Node
	client       *eem.Comma
	server       *eem.Server
	serverAddr   string
}

func newEEMRig(t *testing.T, interval time.Duration) *eemRig {
	t.Helper()
	s := sim.NewScheduler(3)
	n := netsim.New(s)
	ch := n.AddNode("client")
	sh := n.AddNode("server")
	n.Connect(ch, ip.MustParseAddr("10.0.0.1"), sh, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	cStack := tcp.NewStack(ch, tcp.Config{})
	sStack := tcp.NewStack(sh, tcp.Config{})
	ch.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { cStack.Deliver(h.Src, h.Dst, p) })
	sh.RegisterProto(ip.ProtoTCP, func(h ip.Header, p, raw []byte, in *netsim.Iface) { sStack.Deliver(h.Src, h.Dst, p) })

	srv := eem.NewServer("server")
	srv.Interval = interval
	srv.AddSource(&eem.NodeSource{Node: sh})
	if err := eem.ServeSim(sStack, eem.DefaultPort, srv); err != nil {
		t.Fatal(err)
	}
	srv.StartSimTicker(s)

	client := eem.NewComma(eem.SimDialer(cStack))
	return &eemRig{sched: s, net: n, cHost: ch, sHost: sh,
		client: client, server: srv, serverAddr: "10.0.0.2"}
}

func sysUpTimeID(server string) eem.ID {
	return eem.ID{Var: "sysUpTime", Server: server}
}

// TestSampleProgramFig62 replays the thesis's Fig 6.2 example: install
// an IN [0,20] attribute on sysUpTime, then poll the protected data
// area for changes.
func TestSampleProgramFig62(t *testing.T) {
	r := newEEMRig(t, time.Second)
	id := sysUpTimeID(r.serverAddr)
	attr := eem.Attr{
		Lower: eem.LongValue(0),
		Upper: eem.LongValue(2000), // 20s in TimeTicks (centiseconds)
		Op:    eem.IN,
	}
	if err := r.client.Register(id, attr); err != nil {
		t.Fatal(err)
	}
	var seen []int64
	for i := 0; i < 12; i++ {
		r.sched.RunFor(time.Second)
		if r.client.HasChanged(id) {
			v, ok := r.client.GetValue(id)
			if !ok {
				t.Fatal("HasChanged but no value")
			}
			seen = append(seen, v.L)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("too few updates: %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("sysUpTime not increasing: %v", seen)
		}
	}
	// After 20 (virtual) seconds, sysUpTime leaves [0,2000] and the
	// updates stop.
	r.sched.RunFor(15 * time.Second)
	r.client.GetValue(id) // clear changed
	r.sched.RunFor(3 * time.Second)
	if r.client.HasChanged(id) {
		v, _ := r.client.GetValue(id)
		t.Fatalf("updates continued outside the region: %v", v)
	}
}

func TestInterruptCallbackEdgeTriggered(t *testing.T) {
	r := newEEMRig(t, 500*time.Millisecond)
	// Watch ipInReceives > 5 with interrupt notification.
	id := eem.ID{Var: "ipInReceives", Server: r.serverAddr}
	var fired []eem.Value
	err := r.client.Register(id, eem.Attr{Lower: eem.LongValue(5), Op: eem.GT},
		eem.WithCallback(func(gotID eem.ID, v eem.Value) {
			if gotID.Var != "ipInReceives" {
				t.Errorf("callback for %v", gotID)
			}
			fired = append(fired, v)
		}))
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Second)
	if len(fired) != 0 {
		t.Fatalf("callback fired before threshold: %v", fired)
	}
	// Generate traffic to push the counter over 5.
	for i := 0; i < 10; i++ {
		r.cHost.SendIP(r.sHost.Addr(), ip.ProtoUDP, []byte("x"))
	}
	r.sched.RunFor(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("callback fired %d times, want exactly 1 (edge-triggered)", len(fired))
	}
	if fired[0].L <= 5 {
		t.Fatalf("callback value %v", fired[0])
	}
}

func TestPollOnce(t *testing.T) {
	r := newEEMRig(t, time.Hour) // periodic updates effectively off
	var got eem.Value
	var gotErr error
	done := false
	err := r.client.GetValueOnce(eem.ID{Var: "sysName", Server: r.serverAddr}, func(v eem.Value, err error) {
		got, gotErr, done = v, err, true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Second)
	if !done {
		t.Fatal("poll reply never arrived")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.S != "server" {
		t.Fatalf("sysName = %q", got.S)
	}

	// Unknown variable yields an error reply.
	done = false
	r.client.GetValueOnce(eem.ID{Var: "noSuchVar", Server: r.serverAddr}, func(v eem.Value, err error) {
		gotErr, done = err, true
	})
	r.sched.RunFor(2 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("unknown variable: done=%v err=%v", done, gotErr)
	}
	// The server names the failure with a wire error code, so the
	// client reconstructs the typed sentinel across the connection.
	if !errors.Is(gotErr, eem.ErrUnknownVar) {
		t.Fatalf("poll error = %v, want eem.ErrUnknownVar", gotErr)
	}
}

func TestListVariablesIncludesTables61And62(t *testing.T) {
	r := newEEMRig(t, time.Hour)
	var names []string
	r.client.ListVariables(r.serverAddr, func(ns []string, _ error) { names = ns })
	r.sched.RunFor(2 * time.Second)
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"sysUpTime", "ifSpeed", "ipForwDatagrams",
		"tcpRetransSegs", "netLatency", "cpuLoadAvg", "deviceList", "bytes_rx"} {
		if !set[want] {
			t.Errorf("variable %q missing from catalogue", want)
		}
	}
}

func TestDeregisterStopsUpdates(t *testing.T) {
	r := newEEMRig(t, 500*time.Millisecond)
	id := sysUpTimeID(r.serverAddr)
	r.client.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE})
	r.sched.RunFor(2 * time.Second)
	if _, ok := r.client.GetValue(id); !ok {
		t.Fatal("no updates before deregister")
	}
	r.client.Deregister(id)
	r.sched.RunFor(time.Second)
	if _, ok := r.client.GetValue(id); ok {
		t.Fatal("PDA entry survived deregistration")
	}
}

func TestAttrMatching(t *testing.T) {
	cases := []struct {
		attr eem.Attr
		v    eem.Value
		want bool
	}{
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.GT}, eem.LongValue(11), true},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.GT}, eem.LongValue(10), false},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.GTE}, eem.LongValue(10), true},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.LT}, eem.LongValue(9), true},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.LTE}, eem.LongValue(10), true},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.EQ}, eem.DoubleValue(10), true},
		{eem.Attr{Lower: eem.LongValue(10), Op: eem.NEQ}, eem.LongValue(10), false},
		{eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(20), Op: eem.IN}, eem.LongValue(20), true},
		{eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(20), Op: eem.IN}, eem.LongValue(21), false},
		{eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(20), Op: eem.OUT}, eem.LongValue(21), true},
		{eem.Attr{Lower: eem.StringValue("up"), Op: eem.EQ}, eem.StringValue("up"), true},
		{eem.Attr{Lower: eem.StringValue("up"), Op: eem.NEQ}, eem.StringValue("down"), true},
	}
	for i, c := range cases {
		got, err := c.attr.Matches(c.v)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: Matches(%v %v %v) = %v, want %v",
				i, c.attr.Lower, c.attr.Op, c.v, got, c.want)
		}
	}
	// Type checking: ordering operators are invalid for strings
	// (thesis §6.3.2).
	if _, err := (eem.Attr{Lower: eem.StringValue("x"), Op: eem.GT}).Matches(eem.StringValue("y")); err == nil {
		t.Error("GT on strings accepted")
	}
}

func TestOperatorParse(t *testing.T) {
	for _, op := range []eem.Operator{eem.GT, eem.GTE, eem.LT, eem.LTE, eem.EQ, eem.NEQ, eem.IN, eem.OUT} {
		got, err := eem.ParseOperator(op.String())
		if err != nil || got != op {
			t.Errorf("round trip %v: %v %v", op, got, err)
		}
	}
	if _, err := eem.ParseOperator("BOGUS"); err == nil {
		t.Error("parsed bogus operator")
	}
}

func TestValueString(t *testing.T) {
	if eem.LongValue(42).String() != "42" {
		t.Error("long")
	}
	if eem.DoubleValue(2.5).String() != "2.5" {
		t.Error("double")
	}
	if eem.StringValue("hi").String() != "hi" {
		t.Error("string")
	}
}

func TestNodeSourceInterfaceVariables(t *testing.T) {
	r := newEEMRig(t, time.Hour)
	src := &eem.NodeSource{Node: r.sHost}
	v, err := src.Get("ifSpeed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.L != 100e6 {
		t.Fatalf("ifSpeed = %v, want default 100Mb/s", v.L)
	}
	if _, err := src.Get("ifSpeed", 99); err == nil {
		t.Fatal("ifSpeed on missing interface succeeded")
	}
	// Traffic moves the octet counters.
	before, _ := src.Get("ifOutOctets", 0)
	r.sHost.SendIP(r.cHost.Addr(), ip.ProtoUDP, []byte("hello"))
	r.sched.RunFor(time.Second)
	after, _ := src.Get("ifOutOctets", 0)
	if after.L <= before.L {
		t.Fatalf("ifOutOctets did not advance: %d -> %d", before.L, after.L)
	}
}

// TestNodeSourceRTOBoundsMatchTCP pins tcpRtoMin/tcpRtoMax to the
// bounds the TCP stack actually clamps its RTO to.
func TestNodeSourceRTOBoundsMatchTCP(t *testing.T) {
	r := newEEMRig(t, time.Hour)
	src := &eem.NodeSource{Node: r.sHost}
	for name, want := range map[string]time.Duration{"tcpRtoMin": tcp.MinRTO, "tcpRtoMax": tcp.MaxRTO} {
		v, err := src.Get(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != eem.Long || v.L != want.Milliseconds() {
			t.Errorf("%s = %v, want %d ms", name, v, want.Milliseconds())
		}
	}
}

func TestRateVariables(t *testing.T) {
	r := newEEMRig(t, time.Hour)
	src := &eem.NodeSource{Node: r.sHost}
	// First query primes the tracker.
	v, err := src.Get("avgInIPPkts", 0)
	if err != nil || v.D != 0 {
		t.Fatalf("prime: %v %v", v, err)
	}
	// 20 packets over 2 seconds => 10/s.
	for i := 0; i < 20; i++ {
		r.cHost.SendIP(r.sHost.Addr(), ip.ProtoUDP, []byte("x"))
	}
	r.sched.RunFor(2 * time.Second)
	v, err = src.Get("avgInIPPkts", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != eem.Double || v.D < 8 || v.D > 12 {
		t.Fatalf("avgInIPPkts = %v, want ≈10/s", v)
	}
	// Quiet period: rate decays to ~0 on the next window.
	r.sched.RunFor(5 * time.Second)
	v, _ = src.Get("avgInIPPkts", 0)
	if v.D != 0 {
		t.Fatalf("quiet rate = %v, want 0", v)
	}
}

// TestParseValue pins the one value grammar of Kati and policy bounds:
// numbers are whole tokens, anything else is a string.
func TestParseValue(t *testing.T) {
	for in, want := range map[string]eem.Value{
		"7":     eem.LongValue(7),
		"+7":    eem.LongValue(7),
		"-3":    eem.LongValue(-3),
		"1.5":   eem.DoubleValue(1.5),
		"2e6":   eem.DoubleValue(2e6),
		"20ms":  eem.StringValue("20ms"),
		"1.5x":  eem.StringValue("1.5x"),
		"proxy": eem.StringValue("proxy"),
	} {
		if got := eem.ParseValue(in); got != want {
			t.Errorf("ParseValue(%q) = %#v, want %#v", in, got, want)
		}
	}
}

// TestRatesArePerInterface: each (variable, interface) pair keeps its
// own rate window. Traffic on if0 must not show up as a negative rate
// on an idle if1 read a second later, nor the other way round.
func TestRatesArePerInterface(t *testing.T) {
	s := sim.NewScheduler(3)
	n := netsim.New(s)
	a, hub, b := n.AddNode("a"), n.AddNode("hub"), n.AddNode("b")
	n.Connect(a, ip.MustParseAddr("10.0.0.1"), hub, ip.MustParseAddr("10.0.0.2"), netsim.LinkConfig{})
	n.Connect(hub, ip.MustParseAddr("10.0.1.2"), b, ip.MustParseAddr("10.0.1.1"), netsim.LinkConfig{})
	src := &eem.NodeSource{Node: hub}
	get := func(index int) float64 {
		t.Helper()
		v, err := src.Get("ethInAvg", index)
		if err != nil {
			t.Fatal(err)
		}
		return v.D
	}
	for i := 0; i < 20; i++ {
		a.SendIP(ip.MustParseAddr("10.0.0.2"), ip.ProtoUDP, []byte("x"))
	}
	s.RunFor(time.Second)
	if r := get(0); r != 0 {
		t.Fatalf("if0 first read = %v, want 0", r)
	}
	s.RunFor(time.Second)
	if r := get(1); r != 0 {
		t.Fatalf("idle if1 first read = %v packets/s, want 0", r)
	}
	for i := 0; i < 10; i++ {
		b.SendIP(ip.MustParseAddr("10.0.1.2"), ip.ProtoUDP, []byte("x"))
	}
	s.RunFor(time.Second)
	if r := get(1); r != 10 {
		t.Fatalf("if1 = %v packets/s, want 10", r)
	}
	if r := get(0); r != 0 {
		t.Fatalf("idle if0 = %v packets/s, want 0", r)
	}
}

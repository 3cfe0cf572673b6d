package eem_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/eem"
	"repro/internal/sim"
)

// capConn records every write so tests can compare wire traffic.
type capConn struct{ lines []string }

func (c *capConn) Write(b []byte) error { c.lines = append(c.lines, string(b)); return nil }
func (c *capConn) Close()               {}
func (c *capConn) Abort()               {}

func capDialer() (eem.Dialer, *capConn) {
	dial, c, _ := capWired()
	return dial, c
}

// capWired is capDialer with the inbound side exposed: feed hands
// server bytes to the client's stream.
func capWired() (dial eem.Dialer, c *capConn, feed func([]byte)) {
	c = &capConn{}
	var onData func([]byte)
	dial = func(string) (eem.Conn, func(func([]byte)), error) {
		return c, func(fn func([]byte)) { onData = fn }, nil
	}
	return dial, c, func(b []byte) { onData(b) }
}

// TestCommaRegisterDefaultsToPDASilent is the regression test for the
// facade's central contract: Register with no mode option emits a
// silent (Interrupt unset) wire registration — the server updates the
// protected data area and no interrupt traffic is requested — while
// WithCallback flips exactly the Interrupt flag. The expected lines
// are the literal bytes the legacy Client wrappers emitted before
// their removal, so the wire protocol stays pinned across the facade
// migration.
func TestCommaRegisterDefaultsToPDASilent(t *testing.T) {
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	attr := eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}
	const silentWire = "register sysUpTime 0 1 0 l 0 l 0\n"
	const interruptWire = "register sysUpTime 0 1 1 l 0 l 0\n"

	newDial, newConn := capDialer()
	cm := eem.NewComma(newDial)
	if err := cm.Register(id, attr); err != nil {
		t.Fatal(err)
	}
	if len(newConn.lines) != 1 || newConn.lines[0] != silentWire {
		t.Fatalf("default Comma registration diverges from the pinned silent wire bytes:\n got %q\nwant %q",
			newConn.lines, silentWire)
	}

	// WithCallback == Interrupt:true on the wire.
	cbDial, cbConn := capDialer()
	cmCb := eem.NewComma(cbDial)
	if err := cmCb.Register(id, attr, eem.WithCallback(func(eem.ID, eem.Value) {})); err != nil {
		t.Fatal(err)
	}
	if len(cbConn.lines) != 1 || cbConn.lines[0] != interruptWire {
		t.Fatalf("WithCallback registration diverges from the pinned interrupt wire bytes:\n got %q\nwant %q",
			cbConn.lines, interruptWire)
	}
}

// TestCommaOptionMatrix drives Register through every option
// combination and pins the validation sentinels.
func TestCommaOptionMatrix(t *testing.T) {
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	ok := eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}
	noop := func(eem.ID, eem.Value) {}
	cases := []struct {
		name string
		attr eem.Attr
		opts []eem.RegisterOption
		want error // nil = success
	}{
		{"default", ok, nil, nil},
		{"callback", ok, []eem.RegisterOption{eem.WithCallback(noop)}, nil},
		{"pda-without-scheduler", ok, []eem.RegisterOption{eem.WithPDA(time.Second)}, eem.ErrNoScheduler},
		{"bad-operator", eem.Attr{Lower: eem.LongValue(0), Op: eem.Operator(99)}, nil, eem.ErrBadAttr},
		{"string-with-ordering-op", eem.Attr{Lower: eem.StringValue("x"), Op: eem.GT}, nil, eem.ErrBadAttr},
	}
	for _, c := range cases {
		dial, _ := capDialer()
		cm := eem.NewComma(dial)
		err := cm.Register(id, c.attr, c.opts...)
		if c.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestCommaWithPDARefreshesOutOfRange: the WithPDA pump keeps GetValue
// current even while the variable sits outside its region of interest —
// exactly where the server's periodic updates go silent.
func TestCommaWithPDARefreshesOutOfRange(t *testing.T) {
	r := newEEMRig(t, time.Hour) // server periodic updates effectively off
	r.client.UseScheduler(r.sched)
	id := sysUpTimeID(r.serverAddr)
	// sysUpTime is never negative: the region never matches, so only
	// the client-driven pump can populate the PDA.
	attr := eem.Attr{Lower: eem.LongValue(0), Op: eem.LT}
	if err := r.client.Register(id, attr, eem.WithPDA(500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Second)
	v, ok := r.client.GetValue(id)
	if !ok {
		t.Fatal("WithPDA pump never refreshed the protected data area")
	}
	if v.L < 0 {
		t.Fatalf("sysUpTime = %v", v)
	}
	if r.client.IsInRange(id) {
		t.Fatal("out-of-range value reported in range")
	}

	// Deregister stops the pump: the PDA entry disappears and stays gone.
	if err := r.client.Deregister(id); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Second)
	if _, ok := r.client.GetValue(id); ok {
		t.Fatal("PDA entry survived deregistration (pump still running?)")
	}
}

// TestCommaPDAReadSemantics pins the protected data area's read
// contract: GetValue and IsInRange see the pumped value, HasChanged
// reports an update without consuming it, and only GetValue clears the
// changed mark.
func TestCommaPDAReadSemantics(t *testing.T) {
	r := newEEMRig(t, time.Second)
	id := sysUpTimeID(r.serverAddr)
	if err := r.client.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Second)
	if got, ok := r.client.GetValue(id); !ok || got.Kind != eem.Long {
		t.Fatalf("GetValue = %v %v", got, ok)
	}
	if !r.client.IsInRange(id) {
		t.Fatal("in-range variable reported out of range")
	}
	r.sched.RunFor(2 * time.Second)
	if !r.client.HasChanged(id) {
		t.Fatal("no change recorded after two server intervals")
	}
	if !r.client.HasChanged(id) {
		t.Fatal("HasChanged cleared by HasChanged — must clear only on GetValue")
	}
	r.client.GetValue(id)
	if r.client.HasChanged(id) {
		t.Fatal("GetValue did not clear the changed mark")
	}
}

// capServers is capDialer over several servers: one stream per server
// dialled, every write recorded as "server line" in write order.
func capServers() (eem.Dialer, *[]string) {
	var lines []string
	return func(server string) (eem.Conn, func(func([]byte)), error) {
		return serverCap{server, &lines}, func(func([]byte)) {}, nil
	}, &lines
}

type serverCap struct {
	server string
	lines  *[]string
}

func (c serverCap) Write(b []byte) error {
	*c.lines = append(*c.lines, c.server+" "+string(b))
	return nil
}
func (serverCap) Close() {}
func (serverCap) Abort() {}

// TestCommaWireTranscript pins the exact client wire lines of a session
// over two servers: registrations in every mode, a re-register (which
// sends its line again), the WithPDA pump's polls and a direct poll
// sharing one seq counter with the catalogue query, and a deregister.
func TestCommaWireTranscript(t *testing.T) {
	sched := sim.NewScheduler(1)
	dial, lines := capServers()
	cm := eem.NewComma(dial)
	cm.UseScheduler(sched)
	attr := eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}
	up := eem.ID{Server: "srv-b", Var: "sysUpTime"}
	bw := eem.ID{Server: "srv-a", Var: "link.bw", Index: 1}
	rtt := eem.ID{Server: "srv-b", Var: "netLatency"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cm.Register(up, attr))
	must(cm.Register(bw, attr, eem.WithCallback(func(eem.ID, eem.Value) {})))
	must(cm.Register(rtt, attr, eem.WithPDA(time.Second)))
	sched.RunFor(1500 * time.Millisecond)
	must(cm.Register(up, attr))
	must(cm.Register(rtt, attr, eem.WithPDA(time.Second)))
	must(cm.GetValueOnce(bw, nil))
	must(cm.ListVariables("srv-a", nil))
	sched.RunFor(1200 * time.Millisecond)
	must(cm.Deregister(up))
	// Each line after its server's name, with its length newline
	// included: no line names a server, and a poll is 20 bytes.
	want := []struct {
		line string
		n    int
	}{
		{"srv-b register sysUpTime 0 1 0 l 0 l 0", 33},
		{"srv-a register link.bw 1 1 1 l 0 l 0", 31},
		{"srv-b register netLatency 0 1 0 l 0 l 0", 34},
		{"srv-b poll 1 netLatency 0", 20},
		{"srv-b register sysUpTime 0 1 0 l 0 l 0", 33},
		{"srv-b register netLatency 0 1 0 l 0 l 0", 34},
		{"srv-a poll 2 link.bw 1", 17},
		{"srv-a list-vars 3", 12},
		{"srv-b poll 4 netLatency 0", 20},
		{"srv-b deregister sysUpTime 0", 23},
	}
	if len(*lines) != len(want) {
		t.Fatalf("%d wire lines, want %d:\n%q", len(*lines), len(want), *lines)
	}
	for i, l := range *lines {
		_, line, _ := strings.Cut(l, " ")
		if l != want[i].line+"\n" || len(line) != want[i].n {
			t.Errorf("line %d:\n got %q (%d bytes)\nwant %q (%d bytes)", i, l, len(line), want[i].line+"\n", want[i].n)
		}
	}
}

// TestCommaPumpDropsReplacedReply: re-registering replaces the WithPDA
// pump, and a reply to the replaced pump's poll is not stored; the new
// pump's replies are.
func TestCommaPumpDropsReplacedReply(t *testing.T) {
	sched := sim.NewScheduler(1)
	dial, _, feed := capWired()
	cm := eem.NewComma(dial)
	cm.UseScheduler(sched)
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	attr := eem.Attr{Lower: eem.LongValue(0), Op: eem.LT}
	reply := func(seq int) {
		feed([]byte(fmt.Sprintf("poll-reply %d l %d\n", seq, 10*seq)))
	}
	if err := cm.Register(id, attr, eem.WithPDA(time.Second)); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Second) // poll seq 1
	if err := cm.Register(id, attr, eem.WithPDA(time.Second)); err != nil {
		t.Fatal(err)
	}
	reply(1)
	if v, ok := cm.GetValue(id); ok {
		t.Fatalf("replaced pump's reply stored: %v", v)
	}
	sched.RunFor(time.Second) // poll seq 2, from the new pump
	reply(2)
	if v, ok := cm.GetValue(id); !ok || v.L != 20 || cm.IsInRange(id) {
		t.Fatalf("new pump's reply: %v %v in-range %v", v, ok, cm.IsInRange(id))
	}
}

// FuzzCommaInbound feeds arbitrary server bytes, split anywhere, into a
// client with a callback registration, a poll and a catalogue query
// outstanding: nothing may panic, and each request is answered at most
// once.
func FuzzCommaInbound(f *testing.F) {
	seeds := eem.CommaInboundSeeds
	f.Add([]byte(strings.Join(seeds, "\n")+"\n"), []byte{5, 40, 3, 200})
	for _, s := range seeds {
		f.Add([]byte(s+"\n"+s+"\n"), []byte{17})
	}
	f.Fuzz(func(t *testing.T, stream, split []byte) {
		dial, _, feed := capWired()
		cm := eem.NewComma(dial)
		id := eem.ID{Server: "srv", Var: "sysUpTime"}
		if err := cm.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE},
			eem.WithCallback(func(eem.ID, eem.Value) {})); err != nil {
			t.Fatal(err)
		}
		polls, lists := 0, 0
		if err := cm.GetValueOnce(eem.ID{Server: "srv", Var: "sysName"}, func(eem.Value, error) { polls++ }); err != nil {
			t.Fatal(err)
		}
		if err := cm.ListVariables("srv", func([]string, error) { lists++ }); err != nil {
			t.Fatal(err)
		}
		for _, b := range split {
			n := min(int(b), len(stream))
			feed(stream[:n])
			stream = stream[n:]
		}
		feed(stream)
		if polls > 1 || lists > 1 {
			t.Fatalf("poll answered %d times, catalogue query %d times", polls, lists)
		}
		cm.GetValue(id)
		cm.IsInRange(id)
	})
}

// TestCommaReadsEquivalentLines: a client fed server lines with names
// and strings quoted, escapes included, where they could stand bare
// sees exactly what a client fed the canonical lines sees: the same
// callbacks, protected data area, poll answer and catalogue.
func TestCommaReadsEquivalentLines(t *testing.T) {
	read := func(lines ...string) string {
		dial, _, feed := capWired()
		cm := eem.NewComma(dial)
		var log []string
		id := eem.ID{Server: "srv", Var: "sysUpTime"}
		if err := cm.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE},
			eem.WithCallback(func(id eem.ID, v eem.Value) { log = append(log, fmt.Sprintf("cb %v=%v", id, v)) })); err != nil {
			t.Fatal(err)
		}
		if err := cm.GetValueOnce(eem.ID{Server: "srv", Var: "sysName"}, func(v eem.Value, err error) {
			log = append(log, fmt.Sprintf("poll %v %v", v, err))
		}); err != nil {
			t.Fatal(err)
		}
		if err := cm.ListVariables("srv", func(names []string, err error) {
			log = append(log, fmt.Sprintf("list %q %v", names, err))
		}); err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			feed([]byte(l + "\n"))
			v, ok := cm.GetValue(id)
			log = append(log, fmt.Sprintf("pda %v %v %v", v, ok, cm.IsInRange(id)))
		}
		return strings.Join(log, "\n")
	}
	canonical := read(
		`update sysUpTime 0 l 7`,
		`notify sysUpTime 0 l 9`,
		`poll-reply 1 s server`,
		`var-list 2 sysUpTime ifSpeed "😀"`,
	)
	variant := read(
		`"update" "sys\u0055pTime" 0 l 7`,
		`notify "sysUpTime" 0 l 9`,
		`poll-reply 1 s "ser\x76er"`,
		`var-list 2 "sysUpTime" "if\123peed" "\U0001F600"`,
	)
	if variant != canonical {
		t.Fatalf("variant lines read differently:\n got %s\nwant %s", variant, canonical)
	}
	if strings.Count(canonical, "cb ") != 1 || !strings.Contains(canonical, "poll server <nil>") ||
		!strings.Contains(canonical, `list ["sysUpTime" "ifSpeed" "`+"\U0001F600"+`"] <nil>`) {
		t.Fatalf("canonical lines not served:\n%s", canonical)
	}
}

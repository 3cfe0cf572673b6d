package eem_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/eem"
)

// capConn records every write so tests can compare wire traffic.
type capConn struct{ lines []string }

func (c *capConn) Write(b []byte) error { c.lines = append(c.lines, string(b)); return nil }
func (c *capConn) Close()               {}
func (c *capConn) Abort()               {}

func capDialer() (eem.Dialer, *capConn) {
	c := &capConn{}
	return func(string) (eem.Conn, func(func([]byte)), error) {
		return c, func(func([]byte)) {}, nil
	}, c
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
	const silentWire = `{"kind":"register","id":{"var":"sysUpTime","server":"srv"},` +
		`"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":1},"value":{"kind":0}}` + "\n"
	const interruptWire = `{"kind":"register","id":{"var":"sysUpTime","server":"srv"},` +
		`"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":1,"interrupt":true},"value":{"kind":0}}` + "\n"

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
		{"poll", ok, []eem.RegisterOption{eem.WithPoll()}, nil},
		{"poll+callback", ok, []eem.RegisterOption{eem.WithPoll(), eem.WithCallback(noop)}, eem.ErrBadMode},
		{"poll+pda", ok, []eem.RegisterOption{eem.WithPoll(), eem.WithPDA(time.Second)}, eem.ErrBadMode},
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

// TestCommaWithPollIsClientLocal: a WithPoll registration never
// contacts the server; values arrive only through GetValueOnce, which
// then lands them in the protected data area.
func TestCommaWithPollIsClientLocal(t *testing.T) {
	dial, conn := capDialer()
	cm := eem.NewComma(dial)
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	if err := cm.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}, eem.WithPoll()); err != nil {
		t.Fatal(err)
	}
	if len(conn.lines) != 0 {
		t.Fatalf("WithPoll registration sent wire traffic: %q", conn.lines)
	}
	if _, ok := cm.GetValue(id); ok {
		t.Fatal("value present before any poll")
	}

	// Against a live rig: GetValueOnce fills the PDA for poll-mode ids.
	r := newEEMRig(t, time.Hour)
	pid := sysUpTimeID(r.serverAddr)
	if err := r.client.Register(pid, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}, eem.WithPoll()); err != nil {
		t.Fatal(err)
	}
	if err := r.client.GetValueOnce(pid, nil); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Second)
	if _, ok := r.client.GetValue(pid); !ok {
		t.Fatal("GetValueOnce reply did not land in the protected data area")
	}
	if err := r.client.Deregister(pid); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.client.GetValue(pid); ok {
		t.Fatal("poll-mode PDA entry survived deregistration")
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

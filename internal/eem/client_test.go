package eem_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/eem"
	"repro/internal/obs"
)

// fakeConn is an in-memory Conn whose writes can be made to fail,
// standing in for a TCP stream that died mid-session.
type fakeConn struct {
	wrote      int
	failWrites bool
	closed     bool
}

func (f *fakeConn) Write(b []byte) error {
	if f.failWrites {
		return errors.New("broken pipe")
	}
	f.wrote++
	return nil
}

func (f *fakeConn) Close() { f.closed = true }
func (f *fakeConn) Abort() { f.closed = true }

// TestDeadConnEvictedOnWriteError is the regression test for the
// connection-cache poisoning bug: before the fix, a conn whose Write
// failed stayed in the client's cache forever, so every later call to
// the same server reused the corpse and failed. Now a write error
// evicts the conn and the next call redials.
func TestDeadConnEvictedOnWriteError(t *testing.T) {
	dials := 0
	var conns []*fakeConn
	dial := func(server string) (eem.Conn, func(func([]byte)), error) {
		dials++
		c := &fakeConn{}
		conns = append(conns, c)
		return c, func(func([]byte)) {}, nil
	}
	cm := eem.NewComma(dial)
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	attr := eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(1 << 40), Op: eem.IN}

	if err := cm.Register(id, attr); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Fatalf("dials = %d after first register, want 1", dials)
	}

	// The stream dies; the next write must fail ...
	conns[0].failWrites = true
	if err := cm.Register(id, attr); err == nil {
		t.Fatal("register on a dead conn did not error")
	}
	if !conns[0].closed {
		t.Fatal("dead conn was not closed on eviction")
	}
	// ... and the one after must redial rather than reuse the corpse.
	// Pre-fix this fails: dials stays 1 and the write errors forever.
	if err := cm.Register(id, attr); err != nil {
		t.Fatalf("register after eviction: %v (conn not evicted?)", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d after eviction, want 2 (redial)", dials)
	}
}

// TestDisconnectFailsPendingPolls pins that polls and catalogue
// queries outstanding on a connection that dies receive an error
// callback instead of hanging forever.
func TestDisconnectFailsPendingPolls(t *testing.T) {
	var cur *fakeConn
	dial := func(server string) (eem.Conn, func(func([]byte)), error) {
		cur = &fakeConn{}
		return cur, func(func([]byte)) {}, nil
	}
	cm := eem.NewComma(dial)
	id := eem.ID{Server: "srv", Var: "ifInOctets"}

	var pollErr error
	called := false
	if err := cm.GetValueOnce(id, func(_ eem.Value, err error) { called = true; pollErr = err }); err != nil {
		t.Fatal(err)
	}
	var listErr error
	listed := 0
	if err := cm.ListVariables("srv", func(_ []string, err error) { listed++; listErr = err }); err != nil {
		t.Fatal(err)
	}
	if called || listed != 0 {
		t.Fatal("request callback fired before any reply")
	}
	// The conn dies, detected by the next write.
	cur.failWrites = true
	if err := cm.Register(id, eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}); err == nil {
		t.Fatal("register on dead conn did not error")
	}
	if !called {
		t.Fatal("pending poll not failed on disconnect")
	}
	if pollErr == nil {
		t.Fatal("pending poll failed without an error")
	}
	if listed != 1 || !errors.Is(listErr, eem.ErrConnLost) {
		t.Fatalf("pending catalogue query: %d callbacks, err %v; want one ErrConnLost", listed, listErr)
	}
}

// TestStaleOnDialFailure: values remain readable but are flagged stale
// once the server's connection is lost.
func TestStaleTracksDisconnect(t *testing.T) {
	var cur *fakeConn
	dial := func(server string) (eem.Conn, func(func([]byte)), error) {
		cur = &fakeConn{}
		return cur, func(func([]byte)) {}, nil
	}
	cm := eem.NewComma(dial)
	id := eem.ID{Server: "srv", Var: "sysUpTime"}
	attr := eem.Attr{Lower: eem.LongValue(0), Op: eem.GTE}
	if err := cm.Register(id, attr); err != nil {
		t.Fatal(err)
	}
	if cm.Stale(id) {
		t.Fatal("fresh registration already stale")
	}
	cur.failWrites = true
	cm.Register(id, attr) // write fails, conn evicted
	if !cm.Stale(id) {
		t.Fatal("entry not stale after its server's conn died")
	}
}

// TestSuperviseReconnectsAndReRegisters runs the full resilience loop
// against a simulated server: register, crash the server, observe
// staleness, restart it, and verify the supervisor redials,
// re-registers the interest, and fresh updates clear the stale flag —
// all without the application doing anything.
func TestSuperviseReconnectsAndReRegisters(t *testing.T) {
	r := newEEMRig(t, time.Second)
	bus := obs.NewBus(r.sched, 4096)
	r.client.SetObs(bus)
	r.client.UseScheduler(r.sched)
	if err := r.client.Supervise(); err != nil {
		t.Fatal(err)
	}
	id := sysUpTimeID(r.serverAddr)
	attr := eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(1 << 40), Op: eem.IN}
	if err := r.client.Register(id, attr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Second)
	if _, ok := r.client.GetValue(id); !ok {
		t.Fatal("no value before the crash")
	}
	if r.client.Stale(id) {
		t.Fatal("value stale while the server is healthy")
	}

	r.server.Crash()
	r.sched.RunFor(2 * time.Second)
	if !r.client.Stale(id) {
		t.Fatal("value not stale after server crash")
	}
	if _, ok := r.client.GetValue(id); !ok {
		t.Fatal("stale value must remain readable")
	}

	r.server.Restart()
	r.sched.RunFor(15 * time.Second)
	if r.client.Stale(id) {
		t.Fatal("value still stale after restart + supervision window")
	}
	if !r.client.HasChanged(id) {
		t.Fatal("no fresh update after reconnect")
	}

	kinds := map[string]int{}
	for _, e := range bus.Events() {
		if e.Subsys == "eem-client" {
			kinds[e.Kind]++
		}
	}
	for _, k := range []string{"conn-down", "redial-scheduled", "reconnected", "re-register"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q event recorded; got %v", k, kinds)
		}
	}
}

// TestSuperviseBackoffGrows pins the exponential part of the redial
// policy: while the server stays dead, consecutive redial delays grow
// (modulo ±25%% jitter) toward the cap rather than hammering at a
// fixed rate.
func TestSuperviseBackoffGrows(t *testing.T) {
	r := newEEMRig(t, time.Second)
	bus := obs.NewBus(r.sched, 4096)
	r.client.SetObs(bus)
	r.client.UseScheduler(r.sched)
	if err := r.client.Supervise(); err != nil {
		t.Fatal(err)
	}
	id := sysUpTimeID(r.serverAddr)
	if err := r.client.Register(id, eem.Attr{Lower: eem.LongValue(0), Upper: eem.LongValue(1 << 40), Op: eem.IN}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Second)
	r.server.Crash()
	const outage = 30 * time.Second
	r.sched.RunFor(outage)

	var attempts []int
	for _, e := range bus.Events() {
		if e.Subsys != "eem-client" || e.Kind != "redial-scheduled" {
			continue
		}
		for _, f := range e.Fields() {
			if f.K == "attempt" {
				attempts = append(attempts, len(attempts))
			}
		}
	}
	if len(attempts) < 4 {
		t.Fatalf("only %d redials in 30s of outage, supervisor stalled?", len(attempts))
	}
	// Each delay is at least 3/4 of RedialBase·2^i capped at RedialMax,
	// so the outage fits at most maxRedials of them whatever the jitter
	// draws; a retry loop without backoff would fit outage/RedialBase.
	maxRedials := 0
	for d, at := eem.RedialBase, time.Duration(0); at < outage; maxRedials++ {
		at += d * 3 / 4
		d = min(2*d, eem.RedialMax)
	}
	if len(attempts) > maxRedials {
		t.Fatalf("%d redials in %v, at most %d fit the backoff", len(attempts), outage, maxRedials)
	}
}

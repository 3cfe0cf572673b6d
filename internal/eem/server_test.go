package eem

// White-box regression tests for the server's determinism and
// edge-trigger behavior. These live inside the package so they can
// drive the wire protocol directly (encodeMsg) and inspect which
// session each message went to without a full simulated network.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recConn records everything the server writes to one session into a
// shared, ordered log, so tests can assert cross-session write order.
type recConn struct {
	name string
	log  *[]string
}

func (c *recConn) Write(b []byte) error {
	m, err := decodeMsg(b)
	if err != nil {
		panic(err)
	}
	*c.log = append(*c.log, c.name+":"+m.Kind)
	return nil
}

func (c *recConn) Close() {}
func (c *recConn) Abort() {}

// SourceFunc serves a fixed set of variables from one function.
type SourceFunc struct {
	Names []string
	Fn    func(name string, index int) (Value, error)
}

func (s SourceFunc) Variables() []string                       { return s.Names }
func (s SourceFunc) Get(name string, index int) (Value, error) { return s.Fn(name, index) }

// register feeds one register line into a session's data callback.
func register(onData func([]byte), id ID, a Attr) {
	onData(encodeMsg(wireMsg{Kind: msgRegister, ID: id, A: a}))
}

// TestTickVisitsSessionsInAcceptOrder pins the determinism contract:
// with several clients registered for an always-in-range variable,
// every Tick must emit their updates in accept order. The pre-fix
// server iterated a map of sessions, so with 6 sessions and 20 ticks
// the chance of this passing by luck is (1/6!)^20.
func TestTickVisitsSessionsInAcceptOrder(t *testing.T) {
	s := NewServer("test")
	s.AddSource(SourceFunc{
		Names: []string{"v"},
		Fn:    func(string, int) (Value, error) { return LongValue(5), nil },
	})

	var log []string
	const n = 6
	for i := 0; i < n; i++ {
		onData, _ := s.Accept(&recConn{name: fmt.Sprintf("c%d", i), log: &log})
		register(onData, ID{Var: "v"}, Attr{Lower: LongValue(0), Op: GTE})
	}

	for tick := 0; tick < 20; tick++ {
		log = log[:0]
		s.Tick()
		if len(log) != n {
			t.Fatalf("tick %d: %d messages, want %d: %v", tick, len(log), n, log)
		}
		for i, got := range log {
			want := fmt.Sprintf("c%d:%s", i, msgUpdate)
			if got != want {
				t.Fatalf("tick %d: message %d = %q, want %q (full order %v)", tick, i, got, want, log)
			}
		}
	}
}

// TestSessionCloseRemovesFromTick verifies the ordered-slice session
// registry drops a closed session and keeps the others in order.
func TestSessionCloseRemovesFromTick(t *testing.T) {
	s := NewServer("test")
	s.AddSource(SourceFunc{
		Names: []string{"v"},
		Fn:    func(string, int) (Value, error) { return LongValue(1), nil },
	})

	var log []string
	var closers []func()
	for i := 0; i < 3; i++ {
		onData, onClose := s.Accept(&recConn{name: fmt.Sprintf("c%d", i), log: &log})
		register(onData, ID{Var: "v"}, Attr{Lower: LongValue(0), Op: GTE})
		closers = append(closers, onClose)
	}
	closers[1]()
	log = log[:0]
	s.Tick()
	if len(log) != 2 || log[0] != "c0:update" || log[1] != "c2:update" {
		t.Fatalf("post-close tick order = %v, want [c0:update c2:update]", log)
	}
}

// TestServerDeregisterAll: a deregister-all line ends every
// registration of the session that sent it, and only of that session:
// its periodic updates stop while the other session's go on, and a
// later register on it is served again.
func TestServerDeregisterAll(t *testing.T) {
	s := NewServer("test")
	s.AddSource(SourceFunc{
		Names: []string{"v", "w"},
		Fn:    func(string, int) (Value, error) { return LongValue(5), nil },
	})
	var log []string
	a, _ := s.Accept(&recConn{name: "a", log: &log})
	b, _ := s.Accept(&recConn{name: "b", log: &log})
	attr := Attr{Lower: LongValue(0), Op: GTE}
	for _, onData := range []func([]byte){a, b} {
		register(onData, ID{Var: "v"}, attr)
		register(onData, ID{Var: "w", Index: 1}, attr)
	}
	tick := func() string {
		log = log[:0]
		s.Tick()
		return strings.Join(log, " ")
	}
	if got := tick(); got != "a:update b:update" {
		t.Fatalf("before deregister-all: %q", got)
	}
	a([]byte("deregister-all\n"))
	for i := 0; i < 3; i++ {
		if got := tick(); got != "b:update" {
			t.Fatalf("tick %d after a's deregister-all: %q, want only b's update", i, got)
		}
	}
	register(a, ID{Var: "v"}, attr)
	if got := tick(); got != "a:update b:update" {
		t.Fatalf("after a registers again: %q", got)
	}
}

// TestInterruptRefiresAfterGetError covers the stale-wasInRange bug: a
// registration whose source errors mid-flight must be treated as
// out-of-range, so when the value becomes readable and in-range again
// the interrupt re-fires. Pre-fix, the error path skipped the state
// update and the second notify never arrived.
func TestInterruptRefiresAfterGetError(t *testing.T) {
	val := LongValue(10)
	fail := false
	s := NewServer("test")
	s.AddSource(SourceFunc{
		Names: []string{"v"},
		Fn: func(string, int) (Value, error) {
			if fail {
				return Value{}, fmt.Errorf("source unavailable")
			}
			return val, nil
		},
	})

	var log []string
	onData, _ := s.Accept(&recConn{name: "c", log: &log})
	register(onData, ID{Var: "v"}, Attr{Lower: LongValue(5), Op: GT, Interrupt: true})

	notifies := func() int {
		n := 0
		for _, m := range log {
			if m == "c:"+msgNotify {
				n++
			}
		}
		return n
	}

	s.Tick() // in range -> first notify
	if got := notifies(); got != 1 {
		t.Fatalf("after first tick: %d notifies, want 1", got)
	}

	fail = true
	s.Tick() // evaluation errors: must count as out-of-range
	fail = false
	s.Tick() // back in range -> edge re-fires
	if got := notifies(); got != 2 {
		t.Fatalf("after error round-trip: %d notifies, want 2 (stale wasInRange swallowed the edge)", got)
	}
}

// TestInterruptRefiresAfterMatchesError is the same edge through the
// other error path: Attr.Matches fails (string value under an ordering
// operator) rather than the source read.
func TestInterruptRefiresAfterMatchesError(t *testing.T) {
	val := LongValue(10)
	s := NewServer("test")
	s.AddSource(SourceFunc{
		Names: []string{"v"},
		Fn:    func(string, int) (Value, error) { return val, nil },
	})

	var log []string
	onData, _ := s.Accept(&recConn{name: "c", log: &log})
	register(onData, ID{Var: "v"}, Attr{Lower: LongValue(5), Op: GT, Interrupt: true})

	notifies := func() int {
		n := 0
		for _, m := range log {
			if m == "c:"+msgNotify {
				n++
			}
		}
		return n
	}

	s.Tick()
	if got := notifies(); got != 1 {
		t.Fatalf("after first tick: %d notifies, want 1", got)
	}

	val = StringValue("boom") // GT on a string: Matches errors
	s.Tick()
	val = LongValue(10)
	s.Tick()
	if got := notifies(); got != 2 {
		t.Fatalf("after type-mismatch round-trip: %d notifies, want 2", got)
	}
}

// floodConn records the server's writes and whether it was aborted.
type floodConn struct {
	wrote   [][]byte
	aborted bool
}

func (c *floodConn) Write(b []byte) error { c.wrote = append(c.wrote, b); return nil }
func (c *floodConn) Close()               {}
func (c *floodConn) Abort()               { c.aborted = true }

// TestEEMUnframedFloodSevered is the regression test for the unbounded
// session buffer: a peer streaming bytes with no newline used to grow
// the server's memory by every byte it sent. Now the session is told
// why and aborted, and what the server allocated while reading stays
// within a small multiple of the bound, not of the flood.
func TestEEMUnframedFloodSevered(t *testing.T) {
	s := NewServer("test")
	c := &floodConn{}
	onData, _ := s.Accept(c)
	chunk := bytes.Repeat([]byte("x"), 4096)
	const flood = 64 * MaxLine

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for sent := 0; sent < flood; sent += len(chunk) {
		onData(chunk)
	}
	runtime.ReadMemStats(&after)

	if !c.aborted {
		t.Fatalf("%d bytes without a newline did not abort the session", flood)
	}
	if len(c.wrote) != 1 || !bytes.Contains(c.wrote[0], []byte("exceeds")) {
		t.Fatalf("flood diagnostic: wrote %q", c.wrote)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*MaxLine {
		t.Fatalf("reading a %d-byte flood allocated %d bytes, bound %d", flood, grew, MaxLine)
	}
}

// TestServerServesEquivalentLines: a session fed its messages with
// names quoted, escapes included, where they could stand bare is
// served exactly as one fed the canonical lines. Each malformed line
// gets an error reply that starts "bad message: ", and the session
// answers the poll after it.
func TestServerServesEquivalentLines(t *testing.T) {
	serve := func(lines ...string) []string {
		s := NewServer("srv")
		s.AddSource(SourceFunc{
			Names: []string{"sysUpTime", "sysName"},
			Fn: func(name string, index int) (Value, error) {
				if name == "sysName" {
					return StringValue("srv"), nil
				}
				return LongValue(int64(7 + index)), nil
			},
		})
		c := &floodConn{}
		onData, _ := s.Accept(c)
		for _, l := range lines {
			onData([]byte(l + "\n"))
			s.Tick()
		}
		out := make([]string, len(c.wrote))
		for i, b := range c.wrote {
			out[i] = string(b)
		}
		return out
	}
	line := func(m wireMsg) string { return strings.TrimSuffix(string(encodeMsg(m)), "\n") }
	canonical := serve(
		line(wireMsg{Kind: msgRegister, ID: ID{Var: "sysUpTime", Index: 2},
			A: Attr{Lower: LongValue(0), Upper: LongValue(100), Op: IN, Interrupt: true}}),
		line(wireMsg{Kind: msgPoll, Seq: 1, ID: ID{Var: "sysName"}}),
		line(wireMsg{Kind: msgListVars, Seq: 2}),
		line(wireMsg{Kind: msgPoll, Seq: 3, ID: ID{Var: "nope"}}),
		line(wireMsg{Kind: msgDeregister, ID: ID{Var: "sysUpTime", Index: 2}}),
	)
	variant := serve(
		`register "sys\x55pTime" 2 6 1 l 0 l 100`,
		`"poll" 1 "sysName" 0`,
		`list-vars 2`,
		`poll 3 "no\u0070e" 0`,
		`deregister "sysUpTime" 2`,
	)
	if strings.Join(variant, "") != strings.Join(canonical, "") {
		t.Fatalf("variant lines served differently:\n got %q\nwant %q", variant, canonical)
	}
	if len(canonical) < 5 {
		t.Fatalf("canonical session got %d replies: %q", len(canonical), canonical)
	}

	poll := line(wireMsg{Kind: msgPoll, Seq: 9, ID: ID{Var: "sysName"}})
	for _, bad := range []string{
		`register sysUpTime 0 1 0 l`,         // truncated
		`subscribe sysUpTime 0`,              // unknown kind
		`poll 1 sysName`,                     // missing field
		`poll 1 sysName 0 srv`,               // extra field
		`register sysUpTime 0 1 0 i 0 l 0`,   // bad value tag
		`poll 9223372036854775808 sysName 0`, // seq overflow
		`poll 1 sysName 9223372036854775808`, // index overflow
		`poll 1 "sysName 0`,                  // unterminated quoted string
		`{"kind":"poll","seq":1}`, "\x00",
	} {
		got := serve(bad, poll)
		if len(got) != 2 {
			t.Fatalf("%q: %d replies, want an error and the poll's: %q", bad, len(got), got)
		}
		m, err := decodeMsg([]byte(got[0]))
		if err != nil || m.Kind != msgError || !strings.HasPrefix(m.Err, "bad message: ") {
			t.Errorf("%q: reply %q, want a bad message error", bad, got[0])
		}
		if got[1] != "poll-reply 9 s srv\n" {
			t.Errorf("%q: session did not answer the next poll: %q", bad, got[1])
		}
	}
}

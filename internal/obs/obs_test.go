package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

func TestBusRecordsInOrder(t *testing.T) {
	s := sim.NewScheduler(1)
	b := NewBus(s, 8)
	b.Emit("proxy", "a", "k1", F("n", 1))
	s.After(time.Second, func() { b.Emit("eem", "b", "k2") })
	s.Run()
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("order wrong: %v", evs)
	}
	if evs[0].At != 0 || evs[1].At != sim.Time(time.Second) {
		t.Fatalf("timestamps wrong: %v %v", evs[0].At, evs[1].At)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("seq wrong: %d %d", evs[0].Seq, evs[1].Seq)
	}
	want := "0s\tproxy\ta\tk1\tn=1"
	if got := evs[0].String(); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestBusRingRetention(t *testing.T) {
	s := sim.NewScheduler(1)
	b := NewBus(s, 4)
	for i := 0; i < 10; i++ {
		b.Emit("x", "e", "k", F("i", i))
	}
	if b.Total() != 10 {
		t.Fatalf("total = %d", b.Total())
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for j, e := range evs {
		if f := e.Fields(); len(f) != 1 || f[0].K != "i" || f[0].Value() != string(rune('6'+j)) {
			t.Fatalf("retained[%d] = %v, want i=%d", j, f, 6+j)
		}
	}
	// Count sees what is retained, matched on both subsystem and kind.
	if b.Count("x", "e") != 4 || b.Count("x", "f") != 0 || b.Count("y", "e") != 0 {
		t.Fatalf("Count = %d/%d/%d, want 4/0/0", b.Count("x", "e"), b.Count("x", "f"), b.Count("y", "e"))
	}
	// Tail clamps to what is retained.
	if got := strings.Count(b.Tail(2), "\n"); got != 2 {
		t.Fatalf("Tail(2) lines = %d", got)
	}
	if got := strings.Count(b.Tail(0), "\n"); got != 4 {
		t.Fatalf("Tail(0) lines = %d", got)
	}
}

// TestRecycledSlotHoldsOnlyItsFields: a one-event ring reuses its slot
// for every emit, with more and fewer fields than the event before, so
// what the previous event left beyond the new count must be cleared,
// and every inline slot past the count stays zero for the next event's
// clear to rely on.
func TestRecycledSlotHoldsOnlyItsFields(t *testing.T) {
	b := NewBus(sim.NewScheduler(1), 1)
	for _, n := range []int{4, 1, 6, 0, 3, 2, 4, 5, 1} {
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = F("f"+strconv.Itoa(i), "v"+strconv.Itoa(n))
		}
		b.Emit("x", "e", "k", fields...)
		e := &b.ring[0]
		if got := e.Fields(); len(got) != n {
			t.Fatalf("%d fields emitted, event holds %v", n, got)
		}
		for i, f := range e.Fields() {
			if f != fields[i] {
				t.Fatalf("%d fields emitted: field %d is %v, want %v", n, i, f, fields[i])
			}
		}
		for i := e.nInline; i < inlineFields; i++ {
			if e.inline[i] != (Field{}) {
				t.Fatalf("%d fields emitted: unused inline slot %d holds %v", n, i, e.inline[i])
			}
		}
		if (e.more != nil) != (n > inlineFields) {
			t.Fatalf("%d fields emitted: overflow slice %v", n, e.more)
		}
	}
}

// mutableStringer changes what it prints, as live simulation state
// behind a String method does.
type mutableStringer struct{ s string }

func (m *mutableStringer) String() string { return m.s }

// TestEventLineIndependentOfWhenRendered: an event records values and
// renders them when read, so its line must not depend on when that is —
// at once, from a copy kept across ten thousand later emits and many
// ring wraps, or from a ring that grew under it. Every type F knows is
// held to the text strconv/fmt gave it at emission; the two fallbacks
// (fmt.Stringer, %v) are formatted at emission, because what they print
// can change afterwards.
func TestEventLineIndependentOfWhenRendered(t *testing.T) {
	str := &mutableStringer{"before"}
	list := []int{1, 2}
	emit := func(b *Bus) {
		b.Emit("test", "types", "k",
			F("s", "text"), F("i", -42), F("i64", int64(-1)<<62), F("u64", ^uint64(0)),
			F("u16", uint16(65535)), F("t", true), F("f", false), F("fl", 0.1), F("big", 1e21),
			F("at", sim.Time(1500*time.Millisecond)), F("str", str), F("v", list), F("empty", ""))
	}
	const want = "0s\ttest\ttypes\tk\ts=text i=-42 i64=-4611686018427387904 u64=18446744073709551615 " +
		"u16=65535 t=true f=false fl=0.1 big=1e+21 at=1.5s str=before v=[1 2] empty="

	s := sim.NewScheduler(1)
	small, large := NewBus(s, 64), NewBus(s, 1<<14)
	emit(small)
	emit(large)
	kept := small.Events()[0]
	if got := kept.String(); got != want {
		t.Fatalf("rendered at once:\n got %q\nwant %q", got, want)
	}
	str.s, list[0] = "after", 9
	for i := 0; i < 10000; i++ {
		small.Emit("test", "filler", "k", F("i", i), F("s", "x"))
		large.Emit("test", "filler", "k", F("i", i))
	}
	if got := kept.String(); got != want {
		t.Fatalf("a copy rendered after the ring wrapped:\n got %q\nwant %q", got, want)
	}
	if evs := large.Events(); len(evs) != 10001 || evs[0].String() != want {
		t.Fatalf("rendered from a ring that grew to %d events:\n got %q\nwant %q", len(evs), evs[0].String(), want)
	}
	if evs := small.Events(); len(evs) != 64 || evs[0].String() != "0s\ttest\tfiller\tk\ti=9936 s=x" {
		t.Fatalf("wrapped ring: %d events, oldest %q", len(evs), evs[0].String())
	}
	if f := kept.Fields(); len(f) != 13 || f[1].K != "i" || f[1].Value() != "-42" || f[12].K != "empty" {
		t.Fatalf("Fields() = %v", f)
	}
}

// TestBusRingGrowsToRetention: the ring is allocated as events arrive,
// and retention is what it was when the whole ring was made up front.
func TestBusRingGrowsToRetention(t *testing.T) {
	b := NewBus(sim.NewScheduler(1), 100)
	if cap(b.ring) != 0 {
		t.Fatalf("NewBus allocated a ring of %d", cap(b.ring))
	}
	for i := 0; i < 250; i++ {
		b.Emit("x", "e", "k", F("i", i))
		if cap(b.ring) > 100 {
			t.Fatalf("ring capacity %d exceeds retention", cap(b.ring))
		}
	}
	evs := b.Events()
	if len(evs) != 100 || b.Total() != 250 {
		t.Fatalf("retained %d of %d", len(evs), b.Total())
	}
	for j := range evs {
		if evs[j].Seq != uint64(150+j) || evs[j].Fields()[0].Value() != strconv.Itoa(150+j) {
			t.Fatalf("retained[%d] = %v", j, evs[j])
		}
	}
}

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	b.Emit("x", "y", "z")
	b.EmitPacket("x", "y", Stream{}, []byte{1})
	if b.Enabled() || b.PacketsTraced() || b.Total() != 0 || b.Events() != nil || b.Count("x", "y") != 0 {
		t.Fatal("nil bus not inert")
	}
}

func TestWriteLogIsByteStable(t *testing.T) {
	run := func() string {
		s := sim.NewScheduler(42)
		b := NewBus(s, 16)
		b.Emit("netsim", "loss", "10.0.0.1->10.0.0.2", F("len", 40))
		s.After(3*time.Millisecond, func() { b.Emit("eem", "update", "s1", F("vars", 2)) })
		s.Run()
		var buf bytes.Buffer
		if err := b.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, c := run(), run()
	if a != c {
		t.Fatalf("two identical runs produced different logs:\n%s\n---\n%s", a, c)
	}
	if !strings.HasPrefix(a, "# obs events: total=2 retained=2\n") {
		t.Fatalf("header: %q", a)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	n := int64(7)
	r.Counter("z.count", func() int64 { return n })
	r.Gauge("a.gauge", func() float64 { return 1.5 })
	r.Counter("m.count", func() int64 { return 2 * n })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[0].Name != "a.gauge" || snap[1].Name != "m.count" || snap[2].Name != "z.count" {
		t.Fatalf("not sorted: %v", snap)
	}
	if snap[0].Value != "1.5" || snap[1].Value != "14" || snap[2].Value != "7" {
		t.Fatalf("values: %v", snap)
	}
	n = 9
	if got := r.Snapshot()[2].Value; got != "9" {
		t.Fatalf("counter not read live: %v", got)
	}
	tbl := r.Table("t").String()
	if !strings.Contains(tbl, "a.gauge") || !strings.Contains(tbl, "counter") {
		t.Fatalf("table rendering: %q", tbl)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", func() int64 { return 0 })
	r.Gauge("x", func() float64 { return 0 })
}

func TestEmitPacketGating(t *testing.T) {
	s := sim.NewScheduler(1)
	b := NewBus(s, 8)
	b.EmitPacket("proxy", "pkt", Stream{}, []byte{1, 2})
	if b.Total() != 0 {
		t.Fatal("EmitPacket recorded with tracing off")
	}
	b.SetTracePackets(true)
	if !b.PacketsTraced() {
		t.Fatal("PacketsTraced false with tracing on")
	}
	b.EmitPacket("proxy", "pkt", Stream{}, []byte{1, 2})
	if b.Total() != 1 {
		t.Fatal("EmitPacket did not record with tracing on")
	}
	b.SetTracePackets(false)
	if b.PacketsTraced() {
		t.Fatal("PacketsTraced true with tracing switched off")
	}
	b.EmitPacket("proxy", "pkt", Stream{}, []byte{1, 2})
	if b.Total() != 1 {
		t.Fatal("EmitPacket recorded after tracing was switched off")
	}
}

// TestStreamKeyRendering: a stream-keyed event renders its 4-tuple in
// the report format at every reader — the line, Tail and WriteLog —
// down to the edges of every field. The all-zero stream renders as
// such, not as the empty key of a string-keyed event.
func TestStreamKeyRendering(t *testing.T) {
	for _, tc := range []struct {
		s    Stream
		want string
	}{
		{Stream{}, "0.0.0.0 0 -> 0.0.0.0 0"},
		{Stream{SrcIP: 0xffffffff, DstIP: 0xffffffff, SrcPort: 65535, DstPort: 65535},
			"255.255.255.255 65535 -> 255.255.255.255 65535"},
		{Stream{SrcIP: ip.AddrFrom4(11, 11, 10, 99), DstIP: ip.AddrFrom4(11, 11, 10, 10), SrcPort: 7, DstPort: 1169},
			"11.11.10.99 7 -> 11.11.10.10 1169"},
	} {
		b := NewBus(sim.NewScheduler(1), 4)
		b.EmitStream("proxy", "queue-build", tc.s, Int("filters", 1))
		b.Emit("eem", "crash", "")
		want := "0s\tproxy\tqueue-build\t" + tc.want + "\tfilters=1\n" + "0s\teem\tcrash\t\n"
		if got := b.Tail(0); got != want {
			t.Fatalf("Tail:\n got %q\nwant %q", got, want)
		}
		var log bytes.Buffer
		if err := b.WriteLog(&log); err != nil {
			t.Fatal(err)
		}
		if got := log.String(); got != "# obs events: total=2 retained=2\n"+want {
			t.Fatalf("WriteLog:\n got %q\nwant %q", got, want)
		}
		if e := b.Events()[0]; !e.HasStream || e.Stream != tc.s || e.Key != "" {
			t.Fatalf("event holds key %q, stream %v (%v), want stream %v", e.Key, e.Stream, e.HasStream, tc.s)
		}
		if e := b.Events()[1]; e.HasStream {
			t.Fatalf("string-keyed event holds stream %v", e.Stream)
		}
	}
}

// TestEmitAllocatesNothing: once the ring is full, an event is copied
// into the oldest slot, its key and numbers as values, so neither a
// string-keyed nor a stream-keyed emit allocates, whatever size the
// numbers are (F's any would box most of them).
func TestEmitAllocatesNothing(t *testing.T) {
	const retention = 16
	b := NewBus(sim.NewScheduler(1), retention)
	s := Stream{SrcIP: ip.AddrFrom4(11, 11, 10, 99), DstIP: ip.AddrFrom4(11, 11, 10, 10), SrcPort: 7, DstPort: 1169}
	n, f := int64(1)<<40, 0.75
	emit := func() {
		b.Emit("eem", "update", "s1", Int("vars", -n), Uint("bytes", uint64(n)), Float("util", f))
		b.EmitStream("proxy", "queue-teardown", s, Int("pkts", n), Uint("bytes", uint64(n)), Float("util", f))
		n++
	}
	for i := 0; i < retention; i++ {
		emit()
	}
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Fatalf("two emits on a full ring allocate %.1f times, want 0", allocs)
	}
	last := strconv.FormatInt(n-1, 10)
	if got, want := b.Tail(1), "0s\tproxy\tqueue-teardown\t11.11.10.99 7 -> 11.11.10.10 1169\tpkts="+last+" bytes="+last+" util=0.75\n"; got != want {
		t.Fatalf("last event:\n got %q\nwant %q", got, want)
	}
}

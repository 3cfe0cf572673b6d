// Package obs is the deterministic observability layer shared by the
// service proxy, the EEM, the network simulator, and the TCP stack.
//
// It has two halves. The event bus records structured records
// (sim.Time, subsystem, kind, key, fields) in the exact order the
// scheduler produced them, with ring-buffer retention. An event holds
// values — its key (a string, or a stream's 4-tuple) and its fields
// (strings and tagged numbers), copied into the ring slot — and is
// rendered when somebody reads it, so a stream-keyed emit with numeric
// fields allocates nothing; only a fmt.Stringer or a value of a type F
// does not know is formatted at emission, and F boxes what it is
// given. The ring grows to its retention as events arrive. The
// metrics registry unifies the per-package counters (proxy.Stats,
// netsim.LinkStats/NodeStats, the tcp MIB, eem.Server stats) behind
// named, snapshotable counters and gauges rendered through
// internal/trace.
//
// Determinism contract: everything emitted derives from simulation
// state — virtual time, seeded randomness, scheduler order. Two runs
// of the same seeded scenario therefore produce byte-identical event
// logs and metrics snapshots; the committed scenario digests
// (experiments.TestScenarios) enforce exactly that. Wall-clock
// time, goroutine identity, and map iteration order must never leak
// into an event or a snapshot.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Stream is the primary key of a stream-keyed event: the 4-tuple of a
// unidirectional stream. It has filter.Key's fields in filter.Key's
// order, so a filter.Key converts to it for nothing.
type Stream struct {
	SrcIP, DstIP     ip.Addr
	SrcPort, DstPort uint16
}

// AppendTo appends the thesis's report format of s to b:
// "11.11.10.99 7 -> 11.11.10.10 1169". It is the one renderer of a
// stream key; filter.Key's String and AppendTo call it.
func (s Stream) AppendTo(b []byte) []byte {
	b = s.SrcIP.AppendTo(b)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(s.SrcPort), 10)
	b = append(b, " -> "...)
	b = s.DstIP.AppendTo(b)
	b = append(b, ' ')
	return strconv.AppendUint(b, uint64(s.DstPort), 10)
}

// Field is one key=value pair attached to an event. It holds the value
// itself — a string or a tagged number — not its text: the text is
// produced when somebody reads the event. The value is a copy, so a
// record is as immutable as one that was formatted when it was emitted,
// and rendering is byte-stable.
type Field struct {
	K string

	kind valueKind
	num  uint64 // kindInt, kindUint, kindFloat (IEEE bits), kindBool, kindTime
	str  string // kindString
}

type valueKind uint8

const (
	kindString valueKind = iota
	kindInt
	kindUint
	kindFloat
	kindBool
	kindTime
)

// Int, Uint and Float build a numeric Field without passing the
// number through an interface, which F's any would box (allocate) for
// most values: the constructors for fields on hot paths.
func Int(k string, v int64) Field { return Field{K: k, kind: kindInt, num: uint64(v)} }

// Uint builds an unsigned numeric Field (see Int).
func Uint(k string, v uint64) Field { return Field{K: k, kind: kindUint, num: v} }

// Float builds a floating-point Field (see Int).
func Float(k string, v float64) Field { return Field{K: k, kind: kindFloat, num: math.Float64bits(v)} }

// F builds a Field. Supported value types are the ones simulation
// state is made of; they are recorded as values. Everything else is
// formatted here, at emission, because it may change afterwards: a
// fmt.Stringer through String, the rest through %v (callers must
// ensure that is deterministic too — no maps, no pointers).
func F(k string, v any) Field {
	f := Field{K: k}
	switch x := v.(type) {
	case string:
		f.str = x
	case int:
		return Int(k, int64(x))
	case int64:
		return Int(k, x)
	case uint64:
		return Uint(k, x)
	case uint16:
		return Uint(k, uint64(x))
	case bool:
		f.kind = kindBool
		if x {
			f.num = 1
		}
	case float64:
		return Float(k, x)
	case sim.Time:
		f.kind, f.num = kindTime, uint64(x)
	case fmt.Stringer:
		f.str = x.String()
	default:
		f.str = fmt.Sprintf("%v", v)
	}
	return f
}

// appendValue appends the text of the field's value to b.
func (f Field) appendValue(b []byte) []byte {
	switch f.kind {
	case kindInt:
		return strconv.AppendInt(b, int64(f.num), 10)
	case kindUint:
		return strconv.AppendUint(b, f.num, 10)
	case kindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(f.num), 'g', -1, 64)
	case kindBool:
		return strconv.AppendBool(b, f.num != 0)
	case kindTime:
		return append(b, sim.Time(f.num).String()...)
	}
	return append(b, f.str...)
}

// Value renders the field's value.
func (f Field) Value() string {
	if f.kind == kindString {
		return f.str
	}
	return string(f.appendValue(nil))
}

// inlineFields is how many fields an Event holds in place; no emitter
// in the tree passes more than four.
const inlineFields = 4

// Event is one structured observability record.
type Event struct {
	At     sim.Time // virtual time of emission
	Seq    uint64   // global emission index (0-based, never recycled)
	Subsys string   // emitting subsystem: "proxy", "eem", "netsim", "tcp"
	Kind   string   // event kind within the subsystem
	Key    string   // primary key of a string-keyed event: session id, link name

	// The primary key of a stream-keyed event (EmitStream), held as a
	// value and rendered when the event is read.
	Stream    Stream
	HasStream bool

	// The ordered extra fields: the first inlineFields in place, so
	// that recording an event copies values and allocates nothing, and
	// any beyond that in more.
	nInline int
	inline  [inlineFields]Field
	more    []Field
}

// setFields copies fields into the event. Inline slots past nInline
// are always zero, so only those the slot's previous event used beyond
// the new count are cleared (a Field holds strings: each store is a
// write barrier).
func (e *Event) setFields(fields []Field) {
	n := copy(e.inline[:], fields)
	if old := e.nInline; old > n {
		clear(e.inline[n:old])
	}
	e.nInline = n
	switch {
	case len(fields) > inlineFields:
		e.more = append([]Field(nil), fields[inlineFields:]...)
	case e.more != nil:
		e.more = nil
	}
}

// Fields returns a copy of the event's ordered extra fields.
func (e *Event) Fields() []Field {
	return append(append([]Field(nil), e.inline[:e.nInline]...), e.more...)
}

// appendLine renders the event in the canonical tab-separated log
// format: "time<TAB>subsys<TAB>kind<TAB>key<TAB>k=v k=v".
func (e *Event) appendLine(b []byte) []byte {
	b = append(b, e.At.String()...)
	b = append(b, '\t')
	b = append(b, e.Subsys...)
	b = append(b, '\t')
	b = append(b, e.Kind...)
	b = append(b, '\t')
	if e.HasStream {
		b = e.Stream.AppendTo(b)
	} else {
		b = append(b, e.Key...)
	}
	sep := byte('\t')
	for _, fs := range [2][]Field{e.inline[:e.nInline], e.more} {
		for i := range fs {
			b = append(b, sep)
			sep = ' '
			b = append(b, fs[i].K...)
			b = append(b, '=')
			b = fs[i].appendValue(b)
		}
	}
	return append(b, '\n')
}

// String renders the event as one canonical log line (no newline).
func (e Event) String() string {
	b := e.appendLine(nil)
	return string(b[:len(b)-1])
}

// DefaultRetention is the ring-buffer capacity of a Bus when the
// caller does not choose one.
const DefaultRetention = 4096

// Bus is the event bus: an append-only log in scheduler order with
// bounded retention. A nil *Bus is valid and inert, so subsystems emit
// unconditionally through whatever bus they were (or were not) given.
//
// The bus is not internally synchronized: like every simulation
// component it lives on the scheduler's single thread (the realtime
// driver funnels daemon access through DoSync).
type Bus struct {
	clock     *sim.Scheduler
	retention int
	ring      []Event // grows to retention on demand, then wraps
	next      int     // ring slot the next event lands in, once full
	total     uint64  // events emitted over the bus's lifetime

	tracePackets bool
}

// NewBus creates a bus stamping events with clock's virtual time and
// retaining the last retention events (DefaultRetention if <= 0). The
// ring is not allocated here: most buses of a scenario sweep never see
// a fraction of their retention.
func NewBus(clock *sim.Scheduler, retention int) *Bus {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Bus{clock: clock, retention: retention}
}

// Enabled reports whether events emitted here are recorded.
func (b *Bus) Enabled() bool { return b != nil }

// Emit appends one event keyed by a string. Safe on a nil bus
// (no-op). The fields are copied into the ring slot, so the caller's
// argument slice does not escape and the bus allocates only when the
// ring grows.
func (b *Bus) Emit(subsys, kind, key string, fields ...Field) {
	if b != nil {
		b.record(subsys, kind, fields).Key = key
	}
}

// EmitStream appends one event keyed by the stream s, which is stored
// as a value and rendered when the event is read. Safe on a nil bus.
func (b *Bus) EmitStream(subsys, kind string, s Stream, fields ...Field) {
	if b != nil {
		e := b.record(subsys, kind, fields)
		e.Stream, e.HasStream = s, true
	}
}

// record fills the next ring slot with everything but the key.
func (b *Bus) record(subsys, kind string, fields []Field) *Event {
	e := b.slot()
	e.At, e.Seq, e.Subsys, e.Kind = b.clock.Now(), b.total, subsys, kind
	e.Key, e.Stream, e.HasStream = "", Stream{}, false
	e.setFields(fields)
	b.total++
	return e
}

// slot returns the ring slot the next event lands in: a fresh one
// until the ring holds retention events, the oldest one after.
func (b *Bus) slot() *Event {
	if len(b.ring) == b.retention {
		e := &b.ring[b.next]
		b.next = (b.next + 1) % b.retention
		return e
	}
	if len(b.ring) == cap(b.ring) {
		grown := make([]Event, len(b.ring), min(max(2*cap(b.ring), 16), b.retention))
		copy(grown, b.ring)
		b.ring = grown
	}
	b.ring = b.ring[:len(b.ring)+1]
	return &b.ring[len(b.ring)-1]
}

// SetTracePackets toggles per-packet events from EmitPacket. Off by
// default: the packet path is the hot path, and per-packet records are
// only worth their cost when someone asked to see them.
func (b *Bus) SetTracePackets(on bool) { b.tracePackets = on }

// PacketsTraced reports whether EmitPacket currently does anything.
// Safe on a nil bus.
func (b *Bus) PacketsTraced() bool {
	return b != nil && b.tracePackets
}

// EmitPacket records a compact packet-level event (length only) of
// stream s when packet tracing is on. Safe on a nil bus.
func (b *Bus) EmitPacket(subsys, kind string, s Stream, raw []byte) {
	if b.PacketsTraced() {
		b.EmitStream(subsys, kind, s, Int("len", int64(len(raw))))
	}
}

// Total returns the number of events emitted over the bus's lifetime
// (retained or not).
func (b *Bus) Total() uint64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Events returns the retained events, oldest first.
func (b *Bus) Events() []Event {
	if b == nil || len(b.ring) == 0 {
		return nil
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...) // next stays 0 until the ring is full
	return append(out, b.ring[:b.next]...)
}

// Count returns how many retained events carry the given subsystem
// and kind — the "did the rule fire, was the filter quarantined"
// question scenarios ask of the log. Safe on a nil bus.
func (b *Bus) Count(subsys, kind string) int {
	if b == nil {
		return 0
	}
	n := 0
	for i := range b.ring {
		if b.ring[i].Subsys == subsys && b.ring[i].Kind == kind {
			n++
		}
	}
	return n
}

// WriteLog writes the canonical event log: a header line followed by
// one line per retained event. The rendering is byte-stable — two
// deterministic runs produce identical logs.
func (b *Bus) WriteLog(w io.Writer) error {
	evs := b.Events()
	if _, err := fmt.Fprintf(w, "# obs events: total=%d retained=%d\n", b.Total(), len(evs)); err != nil {
		return err
	}
	var line []byte
	for i := range evs {
		line = evs[i].appendLine(line[:0])
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// Tail renders the last n retained events (all of them when n <= 0 or
// exceeds retention), one line each.
func (b *Bus) Tail(n int) string {
	evs := b.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	var out []byte
	for i := range evs {
		out = evs[i].appendLine(out)
	}
	return string(out)
}

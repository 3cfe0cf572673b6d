// Package obs is the deterministic observability layer shared by the
// service proxy, the EEM, the network simulator, and the TCP stack.
//
// It has two halves. The event bus records structured records
// (sim.Time, subsystem, kind, key, fields) in the exact order the
// scheduler produced them, with ring-buffer retention and an optional
// pcap-style packet-capture sink. The metrics registry unifies the
// per-package counters (proxy.Stats, netsim.LinkStats/NodeStats, the
// tcp MIB, eem.Server stats) behind named, snapshotable counters and
// gauges rendered through internal/trace.
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
	"strconv"

	"repro/internal/sim"
)

// Field is one key=value pair attached to an event. Values are
// formatted at emission time so records are immutable and rendering is
// byte-stable.
type Field struct {
	K, V string
}

// F builds a Field, formatting v deterministically. Supported value
// types are the ones simulation state is made of; everything else goes
// through %v (callers must ensure that is deterministic too — no maps,
// no pointers).
func F(k string, v any) Field {
	var s string
	switch x := v.(type) {
	case string:
		s = x
	case int:
		s = strconv.Itoa(x)
	case int64:
		s = strconv.FormatInt(x, 10)
	case uint64:
		s = strconv.FormatUint(x, 10)
	case uint16:
		s = strconv.FormatUint(uint64(x), 10)
	case bool:
		s = strconv.FormatBool(x)
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	case sim.Time:
		s = x.String()
	case fmt.Stringer:
		s = x.String()
	default:
		s = fmt.Sprintf("%v", v)
	}
	return Field{K: k, V: s}
}

// Event is one structured observability record.
type Event struct {
	At     sim.Time // virtual time of emission
	Seq    uint64   // global emission index (0-based, never recycled)
	Subsys string   // emitting subsystem: "proxy", "eem", "netsim", "tcp"
	Kind   string   // event kind within the subsystem
	Key    string   // primary key: stream key, session id, link name
	Fields []Field  // ordered extra fields
}

// appendLine renders the event in the canonical tab-separated log
// format: "time<TAB>subsys<TAB>kind<TAB>key<TAB>k=v k=v".
func (e Event) appendLine(b []byte) []byte {
	b = append(b, e.At.String()...)
	b = append(b, '\t')
	b = append(b, e.Subsys...)
	b = append(b, '\t')
	b = append(b, e.Kind...)
	b = append(b, '\t')
	b = append(b, e.Key...)
	for i, f := range e.Fields {
		if i == 0 {
			b = append(b, '\t')
		} else {
			b = append(b, ' ')
		}
		b = append(b, f.K...)
		b = append(b, '=')
		b = append(b, f.V...)
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
	clock *sim.Scheduler
	ring  []Event
	next  int    // ring slot the next event lands in
	total uint64 // events emitted over the bus's lifetime

	capture      *Capture
	tracePackets bool
}

// NewBus creates a bus stamping events with clock's virtual time and
// retaining the last retention events (DefaultRetention if <= 0).
func NewBus(clock *sim.Scheduler, retention int) *Bus {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Bus{clock: clock, ring: make([]Event, 0, retention)}
}

// Enabled reports whether events emitted here are recorded.
func (b *Bus) Enabled() bool { return b != nil }

// Emit appends one event. Safe on a nil bus (no-op).
func (b *Bus) Emit(subsys, kind, key string, fields ...Field) {
	if b == nil {
		return
	}
	e := Event{At: b.clock.Now(), Seq: b.total, Subsys: subsys, Kind: kind, Key: key, Fields: fields}
	b.total++
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		b.next = len(b.ring) % cap(b.ring)
		return
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % len(b.ring)
}

// SetCapture attaches a pcap-style packet sink fed by EmitPacket.
func (b *Bus) SetCapture(c *Capture) { b.capture = c }

// SetTracePackets toggles per-packet events from EmitPacket. Off by
// default: the packet path is the hot path, and per-packet records are
// only worth their cost when someone asked to see them.
func (b *Bus) SetTracePackets(on bool) { b.tracePackets = on }

// PacketsTraced reports whether EmitPacket currently does anything, so
// hot paths can skip building the key string. Safe on a nil bus.
func (b *Bus) PacketsTraced() bool {
	return b != nil && (b.tracePackets || b.capture != nil)
}

// EmitPacket records a packet-level event: the raw datagram goes to
// the capture sink (if attached) and a compact event (length only) to
// the ring (if packet tracing is on). Safe on a nil bus.
func (b *Bus) EmitPacket(subsys, kind, key string, raw []byte) {
	if !b.PacketsTraced() {
		return
	}
	if b.capture != nil {
		b.capture.Packet(b.clock.Now(), raw)
	}
	if b.tracePackets {
		b.Emit(subsys, kind, key, F("len", len(raw)))
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
	if len(b.ring) < cap(b.ring) {
		return append(out, b.ring...)
	}
	out = append(out, b.ring[b.next:]...)
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
	for _, e := range evs {
		line = e.appendLine(line[:0])
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
	for _, e := range evs {
		out = e.appendLine(out)
	}
	return string(out)
}

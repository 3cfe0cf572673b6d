// Package filter defines the Comma service-proxy filtering model of
// thesis chapter 5: stream keys (with wild-cards), filter priorities,
// the parsed packet view that filter methods inspect and rewrite, and
// the Factory/Hooks contract by which filters attach "in" and "out"
// methods to per-stream filter queues.
package filter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// ErrUnknownFilter marks a name the catalog has no factory for.
// Catalog.Load wraps it in an error that keeps the historical message
// (including the catalog listing), so callers branch with errors.Is
// while control-session output stays unchanged.
var ErrUnknownFilter = errors.New("filter: unknown filter")

// unknownFilterError keeps the exact legacy message while exposing
// ErrUnknownFilter through errors.Is.
type unknownFilterError struct{ msg string }

func (e *unknownFilterError) Error() string { return e.msg }
func (e *unknownFilterError) Unwrap() error { return ErrUnknownFilter }

// Key identifies a unidirectional communication stream: the ordered
// quadruple of source address/port and destination address/port
// (thesis §5.2). Zero-valued fields act as wild-cards when the key is
// used in the stream registry.
//
// The addresses come first: the struct then has no padding, and a map
// keyed by it hashes its 12 bytes in one piece. Its fields are
// obs.Stream's, so obs.Stream(k) converts a key for nothing.
type Key struct {
	SrcIP, DstIP     ip.Addr
	SrcPort, DstPort uint16
}

// Matches reports whether the (possibly wild-card) key k matches the
// exact stream key e: every non-zero field of k must equal e's.
//
// This is the reference semantics for registry matching: the compiled
// classifier (internal/classifier) must answer every lookup exactly as
// a linear scan of this predicate over the registrations would, pinned
// by parity property tests and the FuzzClassifierParity fuzz target.
func (k Key) Matches(e Key) bool {
	return (k.SrcIP.IsZero() || k.SrcIP == e.SrcIP) &&
		(k.SrcPort == 0 || k.SrcPort == e.SrcPort) &&
		(k.DstIP.IsZero() || k.DstIP == e.DstIP) &&
		(k.DstPort == 0 || k.DstPort == e.DstPort)
}

// Reverse returns the key of the stream in the opposite direction.
func (k Key) Reverse() Key {
	return Key{SrcIP: k.DstIP, SrcPort: k.DstPort, DstIP: k.SrcIP, DstPort: k.SrcPort}
}

// IsWild reports whether any field is a wild-card.
func (k Key) IsWild() bool {
	return k.SrcIP.IsZero() || k.SrcPort == 0 || k.DstIP.IsZero() || k.DstPort == 0
}

// String renders the key in the thesis's report format:
// "11.11.10.99 7 -> 11.11.10.10 1169".
func (k Key) String() string {
	var buf [len("255.255.255.255 65535 -> 255.255.255.255 65535")]byte
	return string(k.AppendTo(buf[:0]))
}

// AppendTo appends the report format of k to b, through obs.Stream's
// renderer, the one the event bus uses. The buffer in String stays on
// the stack, so the string itself is the only allocation.
func (k Key) AppendTo(b []byte) []byte { return obs.Stream(k).AppendTo(b) }

// SortByKey sorts s by the rendered text of each element's key: the
// order every listing and teardown sequence has, and the one the
// committed digests hold (it is not the numeric order: "10" sorts
// before "9"). Each key is rendered once, where a comparator calling
// String renders two per comparison.
func SortByKey[T any](s []T, key func(T) Key) {
	type row struct {
		text string
		v    T
	}
	rows := make([]row, len(s))
	for i, v := range s {
		rows[i] = row{key(v).String(), v}
	}
	slices.SortStableFunc(rows, func(a, b row) int { return strings.Compare(a.text, b.text) })
	for i := range rows {
		s[i] = rows[i].v
	}
}

// SortKeys is SortByKey over the keys themselves.
func SortKeys(keys []Key) { SortByKey(keys, func(k Key) Key { return k }) }

// Spec is one parsed `filter[:arg[:arg...]]` entry, the syntax the
// launcher's arguments and a service definition share.
type Spec struct {
	Name string
	Args []string
}

// ParseSpec splits spec at its colons. Whoever instantiates the entry
// per stream parses it once and keeps the result: Args is handed to
// Factory.New as is, which (like a registration's arguments) must not
// modify it.
func ParseSpec(spec string) Spec {
	parts := strings.Split(spec, ":")
	return Spec{Name: parts[0], Args: parts[1:]}
}

// ParseKey parses the four whitespace-separated fields of a key as
// given to the SP "add" command: srcIP srcPort dstIP dstPort. Zeros
// are wild-cards. Fields must parse exactly — trailing junk in a port
// ("7x") or address is an error, not silently truncated.
func ParseKey(fields []string) (Key, error) {
	var k Key
	if len(fields) != 4 {
		return k, fmt.Errorf("filter: key needs 4 fields, got %d", len(fields))
	}
	var err error
	if k.SrcIP, err = ip.ParseAddr(fields[0]); err != nil {
		return k, err
	}
	p, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return k, fmt.Errorf("filter: bad source port %q", fields[1])
	}
	k.SrcPort = uint16(p)
	if k.DstIP, err = ip.ParseAddr(fields[2]); err != nil {
		return k, err
	}
	if p, err = strconv.ParseUint(fields[3], 10, 16); err != nil {
		return k, fmt.Errorf("filter: bad destination port %q", fields[3])
	}
	k.DstPort = uint16(p)
	return k, nil
}

// Priority orders filter methods within a queue (thesis §5.2):
// high-priority filters read first on the in queue and write last on
// the out queue, letting them override lower-priority modifications.
type Priority int

// Priorities used by the thesis's example filters.
const (
	Lowest  Priority = 0  // wsize
	Low     Priority = 25 // rdrop
	Normal  Priority = 50
	High    Priority = 75  // tcp bookkeeping filter
	Highest Priority = 100 // launcher
)

func (p Priority) String() string {
	switch p {
	case Lowest:
		return "LOWEST"
	case Low:
		return "LOW"
	case Normal:
		return "NORMAL"
	case High:
		return "HIGH"
	case Highest:
		return "HIGHEST"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Packet is the parsed view of an intercepted IP datagram that filter
// methods operate on. In methods must treat it as read-only; out
// methods may rewrite header fields and payload and must call
// MarkDirty so a re-marshalling filter (the tcp filter) or the proxy
// knows the raw bytes are stale.
//
// A view is reused: each proxy decodes every packet it intercepts into
// the one view it owns, so the decoded state is only valid until the
// proxy's next interception. Filters that need any part of a packet
// beyond the current hook invocation must copy it (snoop's Encode
// snapshot, the bytes of an edit the TTSF records); holding the
// *Packet, its TCP/UDP pointers, or slices of its decoded headers
// across packets reads whatever packet came next.
type Packet struct {
	Raw []byte        // datagram as intercepted (stale once dirty)
	IP  ip.Header     // decoded network header
	TCP *tcp.Segment  // decoded transport header; nil for non-TCP
	UDP *udp.Datagram // decoded UDP datagram; nil for non-UDP
	// Data is the raw transport payload for protocols the proxy does
	// not decode; for TCP/UDP use the decoded views.
	Data []byte
	Key  Key

	dropped bool
	dirty   bool
	injects [][]byte

	// Decode targets: TCP/UDP point at these when the transport
	// parses, so a reused Packet performs no per-decode header
	// allocations. A target whose pointer is nil keeps what it last
	// decoded; nothing reaches it until Decode fills it again.
	tcpSeg tcp.Segment
	udpDgm udp.Datagram

	// datagram, when set, hands out the buffers Remarshal fills (see
	// SetDatagrams); Decode leaves it alone.
	datagram func(n int) []byte
}

// SetDatagrams makes Remarshal and RemarshalStale fill buffers from
// datagram instead of allocating: the owning proxy passes its node's
// Node.Datagram, so an edited packet is re-marshalled into a buffer
// off the network's free list and goes back to it where it dies.
// Encode never uses it: its snapshots are kept, not handed over.
func (p *Packet) SetDatagrams(datagram func(n int) []byte) { p.datagram = datagram }

// Decode decodes the raw IP datagram into p in place. Every field is
// reset — the transport views, the drop and dirty marks, and the
// injections (keeping their slice's capacity) — so nothing of the
// packet p last held survives. TCP segments are decoded when the
// protocol is TCP and the bytes parse; otherwise TCP stays nil and the
// transport payload is exposed via Data (likewise UDP).
//
// Each field is stored once: the headers decode straight into p.IP and
// the transport targets, and the key is built from the wire words, not
// read back from the fields just written (a wide load of narrow stores
// still in flight cannot be forwarded and stalls).
//
// The view holds slices of raw, which stays the caller's: it belongs
// to the network (netsim's package comment) and is valid only during
// the interception.
func (p *Packet) Decode(raw []byte) error {
	clear(p.injects)
	p.injects = p.injects[:0]
	p.dropped, p.dirty = false, false
	payload, err := p.IP.Decode(raw)
	if err != nil {
		p.Raw, p.TCP, p.UDP, p.Data, p.Key = nil, nil, nil, nil, Key{}
		return err
	}
	var (
		seg   *tcp.Segment
		dgm   *udp.Datagram
		ports uint32
	)
	// w is the header p.IP.Decode checked; byte 9 is the protocol.
	w := raw[:ip.HeaderLen]
	switch w[9] {
	case ip.ProtoTCP:
		if p.tcpSeg.Decode(payload) == nil {
			seg, ports = &p.tcpSeg, binary.BigEndian.Uint32(payload)
		}
	case ip.ProtoUDP:
		if p.udpDgm.Decode(payload) == nil {
			dgm, ports = &p.udpDgm, binary.BigEndian.Uint32(payload)
		}
	}
	p.Raw, p.TCP, p.UDP, p.Data = raw, seg, dgm, payload
	p.Key = Key{
		SrcIP:   ip.Addr(binary.BigEndian.Uint32(w[12:])),
		DstIP:   ip.Addr(binary.BigEndian.Uint32(w[16:])),
		SrcPort: uint16(ports >> 16),
		DstPort: uint16(ports),
	}
	return nil
}

// packetPool recycles the views Parse hands out and Release gives
// back. The proxy decodes into a view of its own and never uses it.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// Parse decodes a raw IP datagram into a pooled Packet (see Decode).
// Callers that parse in a loop should call Release when done, so that
// steady-state parsing is allocation-free; dropping the Packet without
// releasing it is safe, merely slower.
func Parse(raw []byte) (*Packet, error) {
	p := packetPool.Get().(*Packet)
	if err := p.Decode(raw); err != nil {
		packetPool.Put(p)
		return nil, err
	}
	return p, nil
}

// Release returns a Packet from Parse to the pool. The caller must not
// touch the packet — or anything reached through its TCP/UDP pointers —
// afterwards. The view is reset by the Decode that next takes it from
// the pool.
func (p *Packet) Release() { packetPool.Put(p) }

// Drop marks the packet to be discarded instead of reinjected.
func (p *Packet) Drop() { p.dropped = true }

// Undrop withdraws a lower-priority filter's drop verdict. It exists
// for the TTSF alone, whose record of what the mobile was already sent
// overrides what a service does to a retransmission of it.
func (p *Packet) Undrop() { p.dropped = false }

// Dropped reports whether an out method dropped the packet.
func (p *Packet) Dropped() bool { return p.dropped }

// MarkDirty records that decoded fields were modified and Raw is
// stale.
func (p *Packet) MarkDirty() { p.dirty = true }

// Dirty reports whether the packet was modified since interception.
func (p *Packet) Dirty() bool { return p.dirty }

// Remarshal rebuilds Raw from the decoded headers with fresh IP and
// TCP checksums, clearing the dirty mark. This is what the thesis's
// "tcp" filter does as the highest-priority out method.
//
// The new Raw is the one buffer it takes: off the view's datagram
// source when it has one (SetDatagrams), freshly allocated when not
// (a Parse'd view). Either way it is handed over with the packet, to
// the network or the plane's sink, and the proxy never writes it again.
func (p *Packet) Remarshal() error {
	raw, err := p.marshal(&p.IP, p.datagram)
	if err != nil {
		return err
	}
	p.Raw = raw
	p.dirty = false
	return nil
}

// marshal encodes the decoded state into one datagram, from datagram
// when non-nil and allocated otherwise: the transport layer is
// marshalled (with its checksum, which lands in the decoded view too)
// directly behind the room left for the IP header, then h fills that
// in. Every byte is written, so a recycled buffer's stale bytes never
// show.
func (p *Packet) marshal(h *ip.Header, datagram func(n int) []byte) ([]byte, error) {
	hl := h.HeaderLength()
	n := hl
	switch {
	case p.TCP != nil:
		n += p.TCP.HeaderLength() + len(p.TCP.Payload)
	case p.UDP != nil:
		n += udp.HeaderLen + len(p.UDP.Payload)
	default:
		n += len(p.Data)
	}
	var b []byte
	if datagram != nil {
		b = datagram(n)[:hl]
	} else {
		b = make([]byte, hl, n)
	}
	switch {
	case p.TCP != nil:
		b = p.TCP.AppendMarshal(b, h.Src, h.Dst)
	case p.UDP != nil:
		b = p.UDP.AppendMarshal(b, h.Src, h.Dst)
	default:
		b = append(b, p.Data...)
	}
	if err := h.MarshalInto(b); err != nil {
		return nil, err
	}
	return b, nil
}

// Encode marshals the packet's current decoded state into a fresh
// byte slice with correct checksums, without touching Raw or the dirty
// mark. Filters use it to snapshot a packet (e.g. the snoop cache)
// mid-queue, when Raw may be stale. The slice is always allocated,
// never taken from the view's datagram source: a snapshot is kept,
// and a recycled buffer would be rewritten under its keeper.
func (p *Packet) Encode() ([]byte, error) {
	var tcpCk, udpCk uint16
	if p.TCP != nil {
		tcpCk = p.TCP.Checksum
	}
	if p.UDP != nil {
		udpCk = p.UDP.Checksum
	}
	h := p.IP
	b, err := p.marshal(&h, nil)
	// marshal recomputes transport checksums in place; Encode promises
	// not to modify the packet, so restore the wire values.
	if p.TCP != nil {
		p.TCP.Checksum = tcpCk
	}
	if p.UDP != nil {
		p.UDP.Checksum = udpCk
	}
	return b, err
}

// RemarshalStale rebuilds Raw from the decoded headers while
// preserving the checksum values read off the wire. This models the
// thesis's in-place packet editing: a filter that changes a header
// field without recomputing checksums puts a now-invalid checksum on
// the wire, and the receiver discards the segment. The proxy applies
// this to dirty packets that no filter remarshalled — which is exactly
// why the "tcp" bookkeeping filter exists.
func (p *Packet) RemarshalStale() error {
	var staleTCP uint16
	if p.TCP != nil {
		staleTCP = p.TCP.Checksum
	}
	staleIP := p.IP.Checksum
	if err := p.Remarshal(); err != nil {
		return err
	}
	hl := p.IP.HeaderLength()
	p.Raw[10], p.Raw[11] = byte(staleIP>>8), byte(staleIP)
	p.IP.Checksum = staleIP
	if p.TCP != nil && len(p.Raw) >= hl+18 {
		p.Raw[hl+16], p.Raw[hl+17] = byte(staleTCP>>8), byte(staleTCP)
		p.TCP.Checksum = staleTCP
	}
	return nil
}

// Inject queues an additional raw datagram for the proxy to emit
// alongside (or instead of) this packet. Snoop uses this for local
// retransmissions; wsize uses it for window-update packets. As with
// Env.Inject, the buffer is the network's once queued.
func (p *Packet) Inject(raw []byte) { p.injects = append(p.injects, raw) }

// Injections returns packets queued by Inject.
func (p *Packet) Injections() [][]byte { return p.injects }

// Hooks are the methods one filter instance contributes to the filter
// queue of one exact stream key (thesis Fig 5.2: each filter supplies
// an in method and an out method per key).
type Hooks struct {
	// Filter is the owning filter's name, used by accounting/report.
	Filter string
	// Priority places the methods within the queue. Defaults to the
	// factory's priority when attached through an Env.
	Priority Priority
	// In inspects the packet; it must not modify it.
	In func(p *Packet)
	// Out may modify or drop the packet.
	Out func(p *Packet)
	// OnClose is called when the stream's queue is torn down or the
	// filter is deleted from the key.
	OnClose func()
	// State, when non-nil, lets the proxy serialize this instance's
	// per-stream state for live migration to a peer SP. Attachments
	// without it migrate as fresh instances (fail open).
	State StateSnapshotter
}

// StateSnapshotter is the optional migration contract of a filter
// instance: SnapshotState serializes the per-stream state behind one
// attachment into an opaque, self-contained byte string, and
// RestoreState rehydrates a freshly instantiated instance on the
// destination proxy from exactly those bytes. Snapshots are taken
// between two packets on the proxy's own goroutine (the stream is
// quiescent), so implementations serialize plain fields — no locking, no pending
// in-flight packet views. A filter that cannot (or need not) carry
// state across a migration simply leaves Hooks.State nil.
type StateSnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(b []byte) error
}

// Env is the service the proxy provides to filter instances: queue
// attachment, packet injection, stream teardown, timers, events, and
// the host's execution-environment and flow-log measurements.
type Env interface {
	// Clock returns the scheduler, for filter timers.
	Clock() *sim.Scheduler
	// Attach splices hooks into the filter queue of the exact key k,
	// creating the queue if needed. It returns a detach function.
	Attach(k Key, h Hooks) (detach func(), err error)
	// RemoveStream tears down the filter queue for exact key k,
	// closing all attached hooks. The tcp filter calls this at stream
	// close.
	RemoveStream(k Key)
	// Inject emits a raw datagram from the proxy node outside the
	// context of an intercepted packet (timer-driven retransmissions).
	// raw is the network's from then on (netsim's package comment):
	// a buffer is injected at most once, and a filter that keeps one
	// to send again injects a copy.
	Inject(raw []byte)
	// Emit records an event keyed by stream k on the proxy's bus
	// (obs.Bus.EmitStream), with the filter's name as subsys, on state
	// changes and failures only.
	Emit(subsys, kind string, k Key, fields ...obs.Field)
	// Metric returns the current numeric value of one of the host's
	// EEM variables — the table EEM clients read (thesis ch. 6: "EEM
	// clients run as user-level threads which can form part of an
	// application or even of SP filters"); ok is false when no monitor
	// is wired or the variable is unknown or not numeric, and the
	// filter should fall back to static behaviour.
	Metric(name string, index int) (v float64, ok bool)
	// FlowSRTT returns the smoothed RTT of k's flow out of the proxy's
	// flow log — what a delay-aware filter (mwin) needs to size a
	// bandwidth-delay product. Key orientation is irrelevant: the flow
	// log canonicalizes. ok is false when the flow is unknown or has
	// no sample yet.
	FlowSRTT(k Key) (srtt time.Duration, ok bool)
	// Spawn instantiates a loaded filter on the exact key k — the
	// capability behind the launcher filter, which applies a
	// configured set of services to each new stream matching its
	// wild-card key.
	Spawn(name string, k Key, args []string) error
}

// Factory creates filter instances. New is the thesis's "insertion
// method": called when a stream matching a registered key first
// appears (or when a filter is added to an existing stream), it
// attaches hooks to the trigger key and to any related keys — most
// filters also attach to the reverse direction.
type Factory interface {
	// Name is the identifier used in SP commands ("rdrop", "wsize"...).
	Name() string
	// Description is a one-line summary for the report command.
	Description() string
	// New instantiates the filter for the stream identified by
	// trigger, attaching hooks via env. args come verbatim from the
	// "add" command.
	New(env Env, trigger Key, args []string) error
}

// Catalog is a registry of loadable filter factories — the stand-in
// for the thesis's dynamically loaded (dlopen) filter library files.
// The SP "load" command fetches factories from here by name.
type Catalog struct {
	mu        sync.Mutex
	factories map[string]func() Factory
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{factories: make(map[string]func() Factory)}
}

// Register adds a factory constructor under its name. Constructors are
// invoked once per proxy "load" so each proxy gets fresh state.
func (c *Catalog) Register(name string, ctor func() Factory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factories[name] = ctor
}

// Load instantiates the named factory.
func (c *Catalog) Load(name string) (Factory, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctor, ok := c.factories[name]
	if !ok {
		return nil, &unknownFilterError{msg: fmt.Sprintf("filter: no factory %q in catalog (have %s)",
			name, strings.Join(c.names(), ", "))}
	}
	return ctor(), nil
}

// Names lists registered factory names, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.names()
}

func (c *Catalog) names() []string {
	out := make([]string, 0, len(c.factories))
	for n := range c.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

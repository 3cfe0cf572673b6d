// Package proxy implements the Comma Service Proxy (thesis chapter 5):
// packet interception at a routing bottleneck, a stream registry of
// wild-card keys bound to filters, per-stream filter queues with the
// in/out priority discipline of Fig 5.2, filter accounting, and the
// telnet-style command interface of §5.3.
//
// A stream's lifecycle — queue build at first sight, teardown by the tcp
// filter's timer, a detach handle, a delete command or a quarantine —
// recycles its structs: queues and attachments come off per-Proxy free
// lists and go back at teardown, so a flow costs its two detach handles
// and the key strings of its bus events (DESIGN.md, "Flow lifecycle
// budget"). Every teardown path closes each attachment exactly once
// and marks it detached first; a detach handle that outlives its
// attachment does nothing.
//
// A proxy belongs to the one goroutine that feeds it packets: the
// simulator's scheduler for a Site's proxy, the shard goroutine on the
// concurrent plane. Its per-packet state is therefore plain: it decodes
// each packet into the one filter.Packet view it owns, and its counters
// (Stats, the flow log's) are ordinary integers. Nothing on the
// interception path takes a pool slot or runs an atomic operation;
// whoever reads a counter from elsewhere does so through the owner (the
// control port runs there; the plane reads under its quiesce barrier).
package proxy

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/classifier"
	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// QuarantineStrikes is the number of panics a filter instance may
// cause before the proxy detaches it from its queue. The stream then
// fails open — packets keep flowing unmodified — because the thesis's
// transparency promise ranks "never break TCP end-to-end" above "keep
// the service applied".
const QuarantineStrikes = 3

// attachment is one filter instance's hooks spliced into a queue.
type attachment struct {
	hooks filter.Hooks
	seq   int // insertion order breaks priority ties (FIFO)

	// strikes counts hook panics; at QuarantineStrikes the attachment
	// is marked quarantined and swept out of the queue at the end of
	// the current interception.
	strikes     int
	quarantined bool

	// q is the queue the attachment sits in; nil once it has been
	// detached or its queue torn down, which is what makes a detach
	// handle that outlives either a no-op.
	q *queue
}

// queue is the double filter queue of one exact stream key: conceptually
// an in queue (descending priority) and an out queue (ascending
// priority) over the same attachments (thesis Fig 5.2).
type queue struct {
	key      filter.Key
	attached []*attachment // kept sorted by descending priority, then seq
	pkts     int64
	bytes    int64

	// gen is bumped each time the queue is torn down, and kept across
	// its reuse: a flow tag stamped with the queue and an older gen
	// names a queue that is gone.
	gen uint64

	// pendingQuarantine flags that some attachment was quarantined
	// during the current interception; the sweep runs once per packet,
	// after the out queue, keeping the per-hook path branch-cheap.
	pendingQuarantine bool
}

func (q *queue) insert(a *attachment) {
	i := sort.Search(len(q.attached), func(i int) bool {
		b := q.attached[i]
		if b.hooks.Priority != a.hooks.Priority {
			return b.hooks.Priority < a.hooks.Priority
		}
		return b.seq > a.seq
	})
	q.attached = append(q.attached, nil)
	copy(q.attached[i+1:], q.attached[i:])
	q.attached[i] = a
}

// registration is a stream-registry entry: a (wild-card) key bound to a
// loaded filter with arguments.
type registration struct {
	key     filter.Key
	factory filter.Factory
	args    []string
}

// Proxy is a Comma service proxy instance attached to one node of the
// simulated network.
type Proxy struct {
	node    *netsim.Node
	clock   *sim.Scheduler // node's, read once: the flow log's clock
	catalog *filter.Catalog

	pool     map[string]filter.Factory // loaded filters
	services map[string]*serviceDef    // named compositions (§10.2.1)
	registry []*registration
	queues   filter.KeyMap[*queue]
	seq      int

	// sighted is the exact key buildQueue is building queues for, and
	// sightedQ the queue Attach has made or found for it since: what
	// buildQueue returns, without looking the key up again.
	sighted  filter.Key
	sightedQ *queue

	// prog is the compiled registry match program: a lookup costs one
	// table probe per wild-card pattern in the registry, whatever the
	// rule count, with zero allocations. Registry mutations set
	// progDirty instead of recompiling inline, so a burst of control
	// mutations (policy storms, bulk provisioning) costs one compile,
	// paid by the first lookup after the burst — still on the owning
	// goroutine, between packets. Single-writer: only the owning
	// goroutine swaps the pointer.
	prog      *classifier.Program
	progDirty bool

	// progKeys and matchScratch are reusable compile/lookup scratch.
	progKeys     []filter.Key
	matchScratch []int32

	// gen is the generation of the lookup's "no registration matches"
	// answer: it is bumped whenever a queue is created or the registry
	// changes, the two events that can turn a miss into a match. A
	// flow tag holding no queue is a cached miss while its Gen equals
	// it; gen starts at 1, so a zero tag is never one.
	gen uint64

	// emit is the reusable return slice of Intercept: the node
	// consumes it before the next interception, so the hot path never
	// allocates a fresh [][]byte per packet.
	emit [][]byte

	// metricSource, when set, answers filters' execution-environment
	// queries (filter.Env.Metric); wired to the host's EEM variable
	// table.
	metricSource func(name string, index int) (float64, bool)

	// obs and metrics, when set, receive structured events and expose
	// the proxy's counters. Per-packet events stay off the hot path
	// unless packet tracing is enabled on the bus.
	obs     *obs.Bus
	metrics *obs.Registry

	// ext holds runtime-registered extension commands (the policy
	// engine's "policy", the migration manager's "migrate"), dispatched
	// by Exec ahead of the command table.
	ext map[string]func(args []string) string

	// Stats counts proxy-level events.
	Stats Stats

	// pkt is the view every interception decodes into; one
	// interception at a time holds it (InterceptAppend).
	pkt filter.Packet

	// flows is the proxy's flow-log accumulator: every parsed TCP
	// segment folds into its flow record on the interception path.
	flows *flowlog.Table

	// freeQueues and freeAtts recycle what a stream's teardown leaves
	// behind (a queue keeps its attached slice's capacity), so the next
	// first-sight flow builds its queues without the allocator.
	freeQueues filter.FreeList[queue]
	freeAtts   filter.FreeList[attachment]

	// running is the queue whose hooks InterceptAppend is iterating. A
	// hook may detach itself or remove its own stream; what the
	// iteration can still see is then neither edited in place nor
	// recycled.
	running *queue
}

// Stats counts packets through the interception module. The counters
// are plain integers of the owning goroutine: the concurrent plane sums
// per-shard copies read under its quiesce barrier.
type Stats struct {
	Intercepted       int64
	Filtered          int64 // packets that traversed a non-empty queue
	DroppedByFilter   int64
	Injected          int64
	Reinjected        int64
	HookPanics        int64 // filter hook panics caught (never crashes)
	FilterQuarantines int64 // attachments detached after repeated panics
	RegistryMisses    int64 // packets of queueless streams no registration matches
	RegistryRebuilds  int64 // match-program recompiles (registry mutations)
}

// Merge returns the field-wise sum of a and b.
func (a Stats) Merge(b Stats) Stats {
	a.Intercepted += b.Intercepted
	a.Filtered += b.Filtered
	a.DroppedByFilter += b.DroppedByFilter
	a.Injected += b.Injected
	a.Reinjected += b.Reinjected
	a.HookPanics += b.HookPanics
	a.FilterQuarantines += b.FilterQuarantines
	a.RegistryMisses += b.RegistryMisses
	a.RegistryRebuilds += b.RegistryRebuilds
	return a
}

// New builds a proxy on node and installs Intercept as the node's
// packet hook: the one interception loop at the routing bottleneck
// (thesis ch. 5) that every simulated Site runs.
func New(node *netsim.Node, catalog *filter.Catalog) *Proxy {
	p := NewDetached(node, catalog)
	node.SetHook(p.Intercept)
	return p
}

// NewDetached builds a proxy bound to node for clock/injection but
// without installing the node packet hook: its owner feeds it through
// Intercept or InterceptAppend directly (the concurrent plane's shard
// workers, the benchmark's replay rig).
//
// Packets it re-marshals are written into datagram buffers off node's
// network (Node.Datagram). A hooked proxy's output goes on into the
// network, which takes each buffer back where its datagram dies; a
// detached proxy's owner gives back, through Node.Release, each output
// that is not its packet's own raw once done with it (an owner that
// never does merely forgoes the reuse).
func NewDetached(node *netsim.Node, catalog *filter.Catalog) *Proxy {
	clock := node.Clock()
	p := &Proxy{
		node:    node,
		clock:   clock,
		catalog: catalog,
		pool:    make(map[string]filter.Factory),
		prog:    classifier.Compile(nil),
		gen:     1,
		flows:   flowlog.New(clock.Now, flowlog.Config{}),
	}
	p.pkt.SetDatagrams(node.Datagram)
	return p
}

// Node returns the network node hosting the proxy.
func (p *Proxy) Node() *netsim.Node { return p.node }

// SetObs attaches the observability bus and metrics registry. The
// registry is what the "stats" control command renders; the bus feeds
// the "events" command.
func (p *Proxy) SetObs(b *obs.Bus, r *obs.Registry) {
	p.obs = b
	p.metrics = r
}

// RegisterMetrics exposes the proxy's counters under prefix
// (e.g. "proxy" -> "proxy.intercepted"). The registry must be read on
// the proxy's owning goroutine, as the "stats" command and the
// daemons' debug endpoint do.
func (p *Proxy) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+".intercepted", func() int64 { return p.Stats.Intercepted })
	r.Counter(prefix+".filtered", func() int64 { return p.Stats.Filtered })
	r.Counter(prefix+".dropped_by_filter", func() int64 { return p.Stats.DroppedByFilter })
	r.Counter(prefix+".injected", func() int64 { return p.Stats.Injected })
	r.Counter(prefix+".reinjected", func() int64 { return p.Stats.Reinjected })
	r.Counter(prefix+".hook_panics", func() int64 { return p.Stats.HookPanics })
	r.Counter(prefix+".filter_quarantines", func() int64 { return p.Stats.FilterQuarantines })
	r.Counter(prefix+".registry_misses", func() int64 { return p.Stats.RegistryMisses })
	r.Counter(prefix+".registry_rebuilds", func() int64 { return p.Stats.RegistryRebuilds })
	r.Gauge(prefix+".streams", func() float64 { return float64(p.QueueCount()) })
	r.Gauge(prefix+".registrations", func() float64 { return float64(p.RegistrationCount()) })
	r.Gauge(prefix+".flow.active", func() float64 { return float64(p.flows.Stats().Active) })
	r.Counter(prefix+".flow.opened", func() int64 { return p.flows.Stats().Opened })
	r.Counter(prefix+".flow.closed", func() int64 { return p.flows.Stats().Closed })
	r.Counter(prefix+".flow.evicted", func() int64 { return p.flows.Stats().Evicted })
	r.Counter(prefix+".flow.retrans", func() int64 { return p.flows.Stats().Retrans })
	r.Counter(prefix+".flow.zero_win", func() int64 { return p.flows.Stats().ZeroWin })
}

// FlowStats closes the flows idle past the flow log's timeout, then
// copies its counters. Owning-goroutine only.
func (p *Proxy) FlowStats() flowlog.Stats { return p.flows.Snapshot() }

// AppendFlowRecords appends this proxy's flow records (active +
// retained closed, after closing the idle ones) to dst.
// Owning-goroutine only.
func (p *Proxy) AppendFlowRecords(dst []flowlog.Record) []flowlog.Record {
	return p.flows.AppendRecords(dst)
}

// QueueCount returns the number of live filter queues (streams).
// Owning-goroutine only.
func (p *Proxy) QueueCount() int64 { return int64(p.queues.Len()) }

// RegistrationCount returns the stream-registry size. Owning-goroutine
// only.
func (p *Proxy) RegistrationCount() int64 { return int64(len(p.registry)) }

// registryChanged follows every registry mutation: it marks the
// compiled program stale, so program() recompiles before the next
// lookup and no lookup sees a pre-mutation answer, and it retires every
// cached miss. A burst of mutations costs one compile.
func (p *Proxy) registryChanged() {
	p.progDirty = true
	p.gen++
}

// --- filter.Env -------------------------------------------------------------

// Clock implements filter.Env.
func (p *Proxy) Clock() *sim.Scheduler { return p.clock }

// Attach implements filter.Env: it splices hooks into the queue for
// exact key k, creating the queue if necessary, in one probe of the
// queue table. The queue and the attachment come off the proxy's free
// lists; the detach handle is the one allocation, and it does nothing
// once the attachment is gone — detached, or closed with its queue —
// whoever holds the struct now.
func (p *Proxy) Attach(k filter.Key, h filter.Hooks) (func(), error) {
	if k.IsWild() {
		return nil, fmt.Errorf("proxy: cannot attach hooks to wild-card key %v", k)
	}
	slot, found := p.queues.Insert(k)
	q := *slot
	if !found {
		if q = p.freeQueues.Get(); q == nil {
			q = new(queue)
		}
		q.key = k
		*slot = q
		p.gen++ // a stream cached as a miss may be this one
	}
	if k == p.sighted {
		p.sightedQ = q
	}
	a := p.freeAtts.Get()
	if a == nil {
		a = new(attachment)
	}
	seq := p.seq // never repeats, so it tells this use of a from the next
	p.seq++
	a.hooks, a.seq, a.q = h, seq, q
	q.insert(a)
	return func() {
		if a.seq == seq && a.q != nil {
			p.detach(a)
		}
	}, nil
}

// detach removes one live attachment from its queue and closes it; the
// queue goes with its last attachment.
func (p *Proxy) detach(a *attachment) {
	q := a.q
	i := slices.Index(q.attached, a)
	if q == p.running {
		// The interception in progress keeps iterating the old array.
		q.attached = append(slices.Clone(q.attached[:i]), q.attached[i+1:]...)
	} else {
		q.attached = slices.Delete(q.attached, i, i+1)
	}
	a.q = nil
	if a.hooks.OnClose != nil {
		a.hooks.OnClose()
	}
	p.recycle(q, a)
	p.dropIfEmpty(q)
}

// dropIfEmpty tears q down once its last attachment is gone, unless an
// OnClose has already taken it out of the table.
func (p *Proxy) dropIfEmpty(q *queue) {
	if len(q.attached) > 0 {
		return
	}
	if cur, _ := p.queues.Get(q.key); cur == q {
		p.queues.Delete(q.key)
		p.dropQueue(q)
	}
}

// RemoveStream implements filter.Env: tear down the queue for k.
func (p *Proxy) RemoveStream(k filter.Key) {
	if q, ok := p.queues.Delete(k); ok {
		p.dropQueue(q)
	}
}

// dropQueue tears down a live queue its caller has just deleted from
// the table: every attachment still in it closed, the teardown event,
// and the pieces onto the free lists. The attachments are marked
// detached before the first OnClose runs, so a handle called from an
// OnClose (the forward side of ttsf, wsize, snoop and cache detaches
// its reverse side) or at any time later finds nothing to close a
// second time.
func (p *Proxy) dropQueue(q *queue) {
	q.gen++ // retires every flow tag that names q
	if q == p.sightedQ {
		p.sightedQ = nil
	}
	for _, a := range q.attached {
		a.q = nil
	}
	for _, a := range q.attached {
		if a.hooks.OnClose != nil {
			a.hooks.OnClose()
		}
	}
	p.Emit("proxy", "queue-teardown", q.key,
		obs.Int("pkts", q.pkts), obs.Int("bytes", q.bytes))
	if q == p.running {
		return
	}
	p.recycle(q, q.attached...)
	clear(q.attached)
	*q = queue{attached: q.attached[:0], gen: q.gen}
	p.freeQueues.Put(q)
}

// recycle puts closed attachments of q on the free list, zeroed: no
// strikes, not quarantined, no hooks.
func (p *Proxy) recycle(q *queue, as ...*attachment) {
	if q == p.running {
		return
	}
	for _, a := range as {
		*a = attachment{}
		p.freeAtts.Put(a)
	}
}

// Inject implements filter.Env: emit a raw datagram from the proxy.
func (p *Proxy) Inject(raw []byte) {
	p.Stats.Injected++
	p.node.InjectPacket(raw)
}

// Emit implements filter.Env: record an event keyed by stream k on the
// proxy's bus.
func (p *Proxy) Emit(subsys, kind string, k filter.Key, fields ...obs.Field) {
	p.obs.EmitStream(subsys, kind, obs.Stream(k), fields...)
}

var _ filter.Env = (*Proxy)(nil)

// FlowSRTT implements filter.Env: the smoothed RTT of k's flow
// out of this proxy's flow log. Owning-goroutine only, like the flow
// log itself — filter hooks and timers already run there.
func (p *Proxy) FlowSRTT(k filter.Key) (time.Duration, bool) {
	return p.flows.SRTT(k)
}

// SetMetricSource wires the proxy host's execution-environment
// variables (the host's EEM variable table) into the filters' Env.
func (p *Proxy) SetMetricSource(fn func(name string, index int) (float64, bool)) {
	p.metricSource = fn
}

// Metric implements filter.Env.
func (p *Proxy) Metric(name string, index int) (float64, bool) {
	if p.metricSource == nil {
		return 0, false
	}
	return p.metricSource(name, index)
}

// Spawn implements filter.Env: instantiate a loaded filter on an
// exact key without creating a stream-registry entry. The launcher
// filter uses this to apply its configured services to each new
// stream matching its wild-card key.
func (p *Proxy) Spawn(name string, k filter.Key, args []string) error {
	f, ok := p.pool[name]
	if !ok {
		return fmt.Errorf("proxy: spawn: filter %q %w", name, ErrNotLoaded)
	}
	if k.IsWild() {
		return fmt.Errorf("proxy: spawn: key %v is not exact", k)
	}
	return f.New(p, k, args)
}

// --- interception path -------------------------------------------------------

// Intercept is the node packet hook that New installs (in may be nil;
// the path ignores it). It runs InterceptAppend into the proxy's reusable emit
// list, so the steady-state hook path never allocates a fresh [][]byte
// per packet; the returned slice is borrowed, valid until the proxy's
// next interception.
func (p *Proxy) Intercept(raw []byte, in *netsim.Iface) [][]byte {
	for i := range p.emit {
		p.emit[i] = nil // drop references from the previous packet
	}
	p.emit = p.InterceptAppend(raw, in, p.emit[:0])
	return p.emit
}

// InterceptAppend is the interception path: parse, match, build queues
// on demand, run the in and out queues, and append the surviving (and
// injected) datagrams to dst, returning the extended slice. The
// appended entries stay valid across later interceptions: each is
// either the caller's raw buffer passed through untouched, or a
// datagram the proxy marshalled (re-marshalled ones off its node's
// free list) and never writes again. The batched shard pipeline relies
// on this to accumulate a whole batch's output before one sink
// delivery, after which it releases every entry that is not its
// packet's own raw. The steady-state pass-through path
// (no matching service, or a clean traversal of the tcp filter) is
// allocation-free: the packet is decoded into the proxy's own view.
//
// One interception at a time: a hook must not call back into
// InterceptAppend or Intercept of the same proxy (netsim's receive
// never does; Env.Inject goes round the hook).
func (p *Proxy) InterceptAppend(raw []byte, in *netsim.Iface, dst [][]byte) [][]byte {
	p.Stats.Intercepted++
	pkt := &p.pkt
	if err := pkt.Decode(raw); err != nil {
		return append(dst, raw) // unparseable: pass through untouched
	}
	if p.obs.PacketsTraced() {
		p.obs.EmitPacket("proxy", "intercept", obs.Stream(pkt.Key), raw)
	}
	var tag *flowlog.Tag
	if pkt.TCP != nil {
		tag = p.flows.Record(pkt.Key, pkt.TCP, len(raw))
	}
	q := p.lookup(pkt.Key, tag)
	if q == nil || len(q.attached) == 0 {
		return append(dst, raw)
	}
	p.Stats.Filtered++
	q.pkts++
	q.bytes += int64(len(raw))

	// The in pass, then the out pass; after a panic the walk resumes
	// at the hook after the one that raised it.
	p.running = q
	c := hookCursor{as: q.attached}
	for !p.runHooks(q, &c, pkt) {
	}
	p.running = nil
	if q.pendingQuarantine {
		p.sweepQuarantined(q)
	}

	if pkt.Dropped() {
		p.Stats.DroppedByFilter++
		p.Emit("proxy", "filter-drop", q.key, obs.Int("len", int64(len(raw))))
	} else {
		if pkt.Dirty() {
			// No filter remarshalled the modified packet: emit it with
			// its stale checksums, as an in-place edit would. Loading
			// the tcp bookkeeping filter prevents this.
			if err := pkt.RemarshalStale(); err != nil {
				p.Emit("proxy", "remarshal-failed", q.key, obs.F("err", err.Error()))
			}
		}
		p.Stats.Reinjected++
		dst = append(dst, pkt.Raw)
	}
	for _, extra := range pkt.Injections() {
		p.Stats.Injected++
		dst = append(dst, extra)
	}
	return dst
}

// hookCursor is where a packet stands in its queue's two passes: the
// attachments the current pass walks, as they stood when it began, the
// index of the next one, and the hook running now.
type hookCursor struct {
	as  []*attachment
	i   int
	out bool
	a   *attachment
}

// runHooks runs a packet's hooks from c on and reports whether both
// passes are done. The in queue runs in descending priority (attached
// is already sorted that way), read-only inspection; the out queue in
// ascending priority, so the highest-priority filter writes last,
// overriding lower-priority changes (thesis §5.2). One recover guards
// both passes: a hook that panics takes a quarantine strike instead of
// crashing — a broken filter must never take the stream, or the proxy,
// down with it — and runHooks returns false with c on the next hook,
// for the caller to resume there. The single static defer is
// open-coded by the compiler, so the no-panic path stays
// allocation-free (held to by the internal/perf gates).
func (p *Proxy) runHooks(q *queue, c *hookCursor, pkt *filter.Packet) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			p.noteHookPanic(q, c.a, r)
			if c.out {
				c.i--
			} else {
				c.i++
			}
		}
	}()
	if !c.out {
		for ; c.i < len(c.as); c.i++ {
			if a := c.as[c.i]; a.hooks.In != nil && !a.quarantined {
				c.a = a
				a.hooks.In(pkt)
			}
		}
		c.as, c.out = q.attached, true
		c.i = len(c.as) - 1
	}
	for ; c.i >= 0; c.i-- {
		if a := c.as[c.i]; a.hooks.Out != nil && !a.quarantined {
			c.a = a
			a.hooks.Out(pkt)
		}
	}
	return true
}

// noteHookPanic records one strike against the attachment and marks it
// for quarantine once it reaches QuarantineStrikes.
func (p *Proxy) noteHookPanic(q *queue, a *attachment, r any) {
	p.Stats.HookPanics++
	a.strikes++
	p.Emit("proxy", "filter-panic", q.key,
		obs.F("filter", a.hooks.Filter), obs.F("strikes", a.strikes),
		obs.F("err", fmt.Sprint(r)))
	if a.strikes >= QuarantineStrikes && !a.quarantined {
		a.quarantined = true
		q.pendingQuarantine = true
	}
}

// sweepQuarantined detaches every quarantined attachment from q. The
// queue object survives even if it empties: it becomes a tombstone
// through which the stream's packets pass unmodified (fail open),
// rather than being rebuilt — which would re-instantiate the broken
// filter and let it panic another QuarantineStrikes times per rebuild.
func (p *Proxy) sweepQuarantined(q *queue) {
	q.pendingQuarantine = false
	for _, a := range q.take(func(a *attachment) bool { return a.quarantined }) {
		p.Stats.FilterQuarantines++
		p.Emit("proxy", "filter-quarantine", q.key,
			obs.F("filter", a.hooks.Filter), obs.F("strikes", a.strikes))
		if a.hooks.OnClose != nil {
			// The filter already proved itself broken; a panicking
			// OnClose must not undo the containment.
			func() {
				defer func() { recover() }()
				a.hooks.OnClose()
			}()
		}
		p.recycle(q, a)
	}
}

// take removes from q every attachment pick selects and returns them in
// queue order, marked detached. The caller closes them afterwards, when
// the queue is whole again, so an OnClose that detaches another member
// of q edits a consistent slice.
func (q *queue) take(pick func(*attachment) bool) []*attachment {
	var taken []*attachment
	kept := q.attached[:0]
	for _, a := range q.attached {
		if pick(a) {
			a.q = nil
			taken = append(taken, a)
		} else {
			kept = append(kept, a)
		}
	}
	clear(q.attached[len(kept):])
	q.attached = kept
	return taken
}

// program returns the compiled match program, recompiling first if a
// mutation left it dirty.
//
// Concurrency: only the proxy's owning goroutine mutates the registry
// and calls lookups; on the concurrent plane that is the shard
// goroutine, where mutations land between batches (the plane's
// quiesce/epoch barrier) and lookups happen per packet. The rebuild
// and pointer swap are therefore ordinary single-writer state — no
// packet on this shard can ever observe a half-built program, and the
// epoch bump after the mutation barrier publishes the registry change
// to control-plane readers.
func (p *Proxy) program() *classifier.Program {
	if p.progDirty {
		p.rebuildProgram()
	}
	return p.prog
}

// rebuildProgram recompiles the match program from the registry.
func (p *Proxy) rebuildProgram() {
	keys := p.progKeys[:0]
	for _, r := range p.registry {
		keys = append(keys, r.key)
	}
	p.progKeys = keys
	p.prog = classifier.Compile(keys)
	p.progDirty = false
	p.Stats.RegistryRebuilds++
}

// FlushMatchCache forces an immediate recompile of the registry match
// program. Steady state never needs this — registry mutations mark the
// program dirty and the next lookup rebuilds it — but the concurrent
// plane broadcasts it as a control message (exercising epoch-boundary
// program swaps under load), and tests use it after poking proxy
// internals.
func (p *Proxy) FlushMatchCache() { p.rebuildProgram() }

// lookup returns the queue of exact key k, or nil when k passes
// unserviced. tag is k's flow tag (nil if the packet has no flow
// record): while it is current it answers alone, so a known flow is
// classified once (thesis ch. 5: the queue is built when the SP first
// sees the key). Otherwise the queue table answers, then buildQueue,
// and the answer is stamped into tag: a queue with its own generation,
// a miss with the proxy's. A matched registration that attached
// nothing is not cached, so its factories run again on the next packet.
func (p *Proxy) lookup(k filter.Key, tag *flowlog.Tag) *queue {
	if tag != nil {
		if q, _ := tag.Val.(*queue); q != nil {
			if tag.Gen == q.gen {
				return q
			}
		} else if tag.Gen == p.gen {
			p.Stats.RegistryMisses++
			return nil
		}
	}
	q, _ := p.queues.Get(k)
	matched := true
	if q == nil {
		q, matched = p.buildQueue(k)
	}
	switch {
	case tag == nil:
	case q != nil:
		tag.Val, tag.Gen = q, q.gen
	case !matched:
		tag.Val, tag.Gen = nil, p.gen
	}
	return q
}

// buildQueue instantiates every registered filter whose wild-card key
// matches the new exact key (thesis: "a filter queue is built by
// creating a new instantiation of each filter object in the stream
// registry whose associated wild-card key matches the packet key").
// Returns nil when no registration matches (matched false), or when no
// filter attached to k itself. The compiled program answers the match
// in one probe per registry pattern, whatever the registry size, and
// allocation-free on the no-match path.
func (p *Proxy) buildQueue(k filter.Key) (q *queue, matched bool) {
	p.matchScratch = p.program().AppendMatches(p.matchScratch[:0], k)
	if len(p.matchScratch) == 0 {
		p.Stats.RegistryMisses++
		return nil, false
	}
	p.sighted, p.sightedQ = k, nil
	for _, i := range p.matchScratch {
		r := p.registry[i]
		if err := r.factory.New(p, k, r.args); err != nil {
			p.Emit("proxy", "insert-failed", k, obs.F("filter", r.factory.Name()), obs.F("err", err.Error()))
		}
	}
	q = p.sightedQ // filters attached via Env.Attach
	p.sighted, p.sightedQ = filter.Key{}, nil
	if q != nil {
		p.Emit("proxy", "queue-build", k, obs.Int("filters", int64(len(q.attached))))
	}
	return q, true
}

// --- command operations (§5.3.1) ---------------------------------------------

// LoadFilter implements the "load" command: fetch a factory from the
// catalog into the filter pool. Returns the registered filter name.
func (p *Proxy) LoadFilter(name string) (string, error) {
	f, err := p.catalog.Load(name)
	if err != nil {
		return "", err
	}
	if _, dup := p.pool[f.Name()]; dup {
		return "", fmt.Errorf("proxy: filter %q %w", f.Name(), ErrAlreadyLoaded)
	}
	p.pool[f.Name()] = f
	return f.Name(), nil
}

// UnloadFilter implements the "remove" command: drop the filter from
// the pool along with its registrations and live attachments.
func (p *Proxy) UnloadFilter(name string) error {
	if _, ok := p.pool[name]; !ok {
		return fmt.Errorf("proxy: filter %q %w", name, ErrNotLoaded)
	}
	delete(p.pool, name)
	keep := p.registry[:0]
	for _, r := range p.registry {
		if r.factory.Name() != name {
			keep = append(keep, r)
		}
	}
	p.registry = keep
	p.registryChanged()
	p.removeAttachments(name, func(filter.Key) bool { return true })
	return nil
}

// AddFilter implements the "add" command: bind the loaded filter to a
// (possibly wild-card) key with arguments. Exact keys are serviced
// immediately; wild-card keys take effect as matching streams appear,
// and also instantiate on currently-active matching streams.
func (p *Proxy) AddFilter(name string, k filter.Key, args []string) error {
	var f filter.Factory
	if d, isSvc := p.services[name]; isSvc {
		f = &serviceFactory{p: p, d: d}
	} else {
		var ok bool
		f, ok = p.pool[name]
		if !ok {
			return fmt.Errorf("proxy: filter %q %w", name, ErrNotLoaded)
		}
	}
	p.registry = append(p.registry, &registration{key: k, factory: f, args: args})
	p.registryChanged()
	if !k.IsWild() {
		if err := f.New(p, k, args); err != nil {
			// Roll back: a registration left behind would respawn the
			// broken filter on the next matching packet. filter.Env
			// gives f.New no path to the registry, so the last entry is
			// still this one; the program is compiled from p.registry
			// alone, so restoring it restores every answer.
			p.registry = p.registry[:len(p.registry)-1]
			p.registryChanged()
			return err
		}
		return nil
	}
	// Service active streams that match the new wild-card.
	var live []filter.Key
	p.queues.All(func(qk filter.Key, _ *queue) bool {
		if k.Matches(qk) {
			live = append(live, qk)
		}
		return true
	})
	filter.SortKeys(live)
	for _, qk := range live {
		if err := f.New(p, qk, args); err != nil {
			return err
		}
	}
	return nil
}

// DeleteFilter implements the "delete" command: remove the filter's
// registration and attachments for the given key.
func (p *Proxy) DeleteFilter(name string, k filter.Key) error {
	_, isSvc := p.services[name]
	if _, ok := p.pool[name]; !ok && !isSvc {
		return fmt.Errorf("proxy: filter %q %w", name, ErrNotLoaded)
	}
	removedReg := false
	keep := p.registry[:0]
	for _, r := range p.registry {
		if r.factory.Name() == name && r.key == k {
			removedReg = true
			continue
		}
		keep = append(keep, r)
	}
	p.registry = keep
	p.registryChanged()
	// Remove attachments on the exact key and its reverse (filters
	// conventionally attach both directions), or on all matching keys
	// for a wild-card delete.
	removedAtt := p.removeAttachments(name, func(qk filter.Key) bool {
		if k.IsWild() {
			return k.Matches(qk)
		}
		return qk == k || qk == k.Reverse()
	})
	if !removedReg && removedAtt == 0 {
		return fmt.Errorf("proxy: %w %v for filter %q", ErrNoSuchStream, k, name)
	}
	return nil
}

// removeAttachments detaches name's hooks from every queue whose key
// matches, returning how many attachments were removed.
func (p *Proxy) removeAttachments(name string, match func(filter.Key) bool) int {
	// Sort the matching keys before touching them: OnClose hooks have
	// observable effects (events, TCP teardown), so their order must
	// not depend on the table's slot order.
	var keys []filter.Key
	p.queues.All(func(qk filter.Key, _ *queue) bool {
		if match(qk) {
			keys = append(keys, qk)
		}
		return true
	})
	filter.SortKeys(keys)
	removed := 0
	for _, qk := range keys {
		q, ok := p.queues.Get(qk)
		if !ok {
			continue // emptied by an OnClose run for an earlier key
		}
		for _, a := range q.take(func(a *attachment) bool { return a.hooks.Filter == name }) {
			if a.hooks.OnClose != nil {
				a.hooks.OnClose()
			}
			removed++
			p.recycle(q, a)
		}
		p.dropIfEmpty(q)
	}
	return removed
}

// ReportData gathers the raw report listing: the filter names to show
// (sorted) and, per filter, the stream keys it services. The
// concurrent data plane merges the per-shard maps before rendering.
func (p *Proxy) ReportData(name string) ([]string, map[string][]string, error) {
	if name != "" {
		_, isFilter := p.pool[name]
		_, isSvc := p.services[name]
		if !isFilter && !isSvc {
			return nil, nil, fmt.Errorf("proxy: filter %q %w", name, ErrNotLoaded)
		}
	}
	// Gather keys per filter: live attachments plus wild-card
	// registrations (shown with their wild-card key, as the thesis's
	// launcher line "11.11.10.10 0 -> 0.0.0.0 0" does).
	perFilter := make(map[string][]string)
	for _, r := range p.registry {
		if r.key.IsWild() {
			perFilter[r.factory.Name()] = append(perFilter[r.factory.Name()], r.key.String())
		}
	}
	p.queues.All(func(qk filter.Key, q *queue) bool {
		for _, a := range q.attached {
			perFilter[a.hooks.Filter] = append(perFilter[a.hooks.Filter], qk.String())
		}
		return true
	})
	var names []string
	if name != "" {
		names = []string{name}
	} else {
		for n := range p.pool {
			names = append(names, n)
		}
		for n := range p.services {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	return names, perFilter, nil
}

// renderReport renders ReportData output in the Fig 5.3 format: each
// filter name on its own line, its (sorted, deduplicated) stream keys
// tab-indented beneath it.
func renderReport(names []string, perFilter map[string][]string) string {
	var b strings.Builder
	for _, n := range names {
		keys := perFilter[n]
		sort.Strings(keys)
		keys = dedup(keys)
		fmt.Fprintf(&b, "%s\n", n)
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%s\n", k)
		}
	}
	return b.String()
}

func dedup(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Streams returns the exact keys with live filter queues, sorted, with
// the filter names attached to each — Kati's stream view.
func (p *Proxy) Streams() []StreamInfo {
	var out []StreamInfo
	p.queues.All(func(k filter.Key, q *queue) bool {
		si := StreamInfo{Key: k, Packets: q.pkts, Bytes: q.bytes}
		for _, a := range q.attached {
			si.Filters = append(si.Filters, a.hooks.Filter)
		}
		out = append(out, si)
		return true
	})
	filter.SortByKey(out, func(si StreamInfo) filter.Key { return si.Key })
	return out
}

// StreamInfo describes one live serviced stream for monitoring.
type StreamInfo struct {
	Key     filter.Key
	Filters []string // in queue order (descending priority)
	Packets int64
	Bytes   int64
}

// renderStreams renders the "streams" listing, one line per stream.
func renderStreams(streams []StreamInfo) string {
	var b strings.Builder
	for _, si := range streams {
		fmt.Fprintf(&b, "%s\t[%s]\t%d pkts %d bytes\n",
			si.Key, strings.Join(si.Filters, ","), si.Packets, si.Bytes)
	}
	return b.String()
}

// LoadedFilters lists the filter pool, sorted by name.
func (p *Proxy) LoadedFilters() []string {
	var out []string
	for n := range p.pool {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

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
package proxy

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
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
	catalog *filter.Catalog

	pool     map[string]filter.Factory // loaded filters
	services map[string]*serviceDef    // named compositions (§10.2.1)
	registry []*registration
	queues   map[filter.Key]*queue
	seq      int

	// prog is the compiled registry match program: per-packet lookups
	// cost O(1) in the rule count with zero allocations — no negative
	// cache needed, hence no mass-eviction rescan cliff under SYN/FIN
	// churn. Registry mutations set progDirty instead of recompiling
	// inline, so a burst of control mutations (policy storms, bulk
	// provisioning) costs one compile, paid by the first lookup after
	// the burst — still on the owning goroutine, between packets.
	// Single-writer: only the owning goroutine swaps the pointer.
	prog      *classifier.Program
	progDirty bool

	// progKeys and matchScratch are reusable compile/lookup scratch.
	progKeys     []filter.Key
	matchScratch []int32

	// emit is the reusable return slice of Intercept: the node
	// consumes it before the next interception, so the hot path never
	// allocates a fresh [][]byte per packet.
	emit [][]byte

	// Log, when non-nil, receives diagnostic lines from filters and
	// the proxy itself.
	Log func(string)

	// metricSource, when set, answers filters' execution-environment
	// queries (filter.Metrics); typically wired to the host's EEM
	// variable source.
	metricSource func(name string, index int) (float64, bool)

	// obs and metrics, when set, receive structured events and expose
	// the proxy's counters. Per-packet events stay off the hot path
	// unless packet tracing is enabled on the bus.
	obs     *obs.Bus
	metrics *obs.Registry

	// nQueues/nRegs mirror len(queues)/len(registry) atomically so a
	// sharded data plane can expose merged gauges without entering the
	// shard goroutine. Updated (single-writer) at every mutation.
	nQueues atomic.Int64
	nRegs   atomic.Int64

	// Stats counts proxy-level events.
	Stats Stats

	// flows is the per-shard flow-log accumulator: every parsed TCP
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
// are atomics so the sharded data plane can sum per-shard instances
// exactly while shard goroutines keep writing: each field has a single
// writer (the owning shard) and any number of readers.
type Stats struct {
	Intercepted       atomic.Int64
	Filtered          atomic.Int64 // packets that traversed a non-empty queue
	DroppedByFilter   atomic.Int64
	Injected          atomic.Int64
	Reinjected        atomic.Int64
	HookPanics        atomic.Int64 // filter hook panics caught (never crashes)
	FilterQuarantines atomic.Int64 // attachments detached after repeated panics
	RegistryMisses    atomic.Int64 // first-sight packets no registration matched
	RegistryRebuilds  atomic.Int64 // match-program recompiles (registry mutations)
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Intercepted:       s.Intercepted.Load(),
		Filtered:          s.Filtered.Load(),
		DroppedByFilter:   s.DroppedByFilter.Load(),
		Injected:          s.Injected.Load(),
		Reinjected:        s.Reinjected.Load(),
		HookPanics:        s.HookPanics.Load(),
		FilterQuarantines: s.FilterQuarantines.Load(),
		RegistryMisses:    s.RegistryMisses.Load(),
		RegistryRebuilds:  s.RegistryRebuilds.Load(),
	}
}

// StatsSnapshot is a plain-value copy of Stats, mergeable across
// shards.
type StatsSnapshot struct {
	Intercepted       int64
	Filtered          int64
	DroppedByFilter   int64
	Injected          int64
	Reinjected        int64
	HookPanics        int64
	FilterQuarantines int64
	RegistryMisses    int64
	RegistryRebuilds  int64
}

// Merge returns the field-wise sum of a and b.
func (a StatsSnapshot) Merge(b StatsSnapshot) StatsSnapshot {
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

// NewDetached builds a proxy bound to node for clock/injection but
// without installing the node packet hook: the sharded data plane owns
// dispatch and feeds each shard through Intercept directly.
func NewDetached(node *netsim.Node, catalog *filter.Catalog) *Proxy {
	return &Proxy{
		node:    node,
		catalog: catalog,
		pool:    make(map[string]filter.Factory),
		queues:  make(map[filter.Key]*queue),
		prog:    classifier.Compile(nil),
		flows:   flowlog.New(func() sim.Time { return node.Clock().Now() }, flowlog.Config{}),
	}
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
// (e.g. "proxy" -> "proxy.intercepted").
func (p *Proxy) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+".intercepted", func() int64 { return p.Stats.Intercepted.Load() })
	r.Counter(prefix+".filtered", func() int64 { return p.Stats.Filtered.Load() })
	r.Counter(prefix+".dropped_by_filter", func() int64 { return p.Stats.DroppedByFilter.Load() })
	r.Counter(prefix+".injected", func() int64 { return p.Stats.Injected.Load() })
	r.Counter(prefix+".reinjected", func() int64 { return p.Stats.Reinjected.Load() })
	r.Counter(prefix+".hook_panics", func() int64 { return p.Stats.HookPanics.Load() })
	r.Counter(prefix+".filter_quarantines", func() int64 { return p.Stats.FilterQuarantines.Load() })
	r.Counter(prefix+".registry_misses", func() int64 { return p.Stats.RegistryMisses.Load() })
	r.Counter(prefix+".registry_rebuilds", func() int64 { return p.Stats.RegistryRebuilds.Load() })
	r.Gauge(prefix+".streams", func() float64 { return float64(p.QueueCount()) })
	r.Gauge(prefix+".registrations", func() float64 { return float64(p.RegistrationCount()) })
	fs := p.flows.Stats()
	r.Gauge(prefix+".flow.active", func() float64 { return float64(fs.Active.Load()) })
	r.Counter(prefix+".flow.opened", func() int64 { return fs.Opened.Load() })
	r.Counter(prefix+".flow.closed", func() int64 { return fs.Closed.Load() })
	r.Counter(prefix+".flow.evicted", func() int64 { return fs.Evicted.Load() })
	r.Counter(prefix+".flow.retrans", func() int64 { return fs.Retrans.Load() })
	r.Counter(prefix+".flow.zero_win", func() int64 { return fs.ZeroWin.Load() })
}

// FlowStats snapshots the flow-log counters. Safe from any goroutine.
func (p *Proxy) FlowStats() flowlog.StatsSnapshot { return p.flows.Stats().Snapshot() }

// AppendFlowRecords appends this proxy's flow records (active +
// retained closed) to dst. Owning-goroutine only.
func (p *Proxy) AppendFlowRecords(dst []flowlog.Record) []flowlog.Record {
	return p.flows.AppendRecords(dst)
}

// QueueCount returns the number of live filter queues (streams). Safe
// from any goroutine.
func (p *Proxy) QueueCount() int64 { return p.nQueues.Load() }

// RegistrationCount returns the stream-registry size. Safe from any
// goroutine.
func (p *Proxy) RegistrationCount() int64 { return p.nRegs.Load() }

// noteSizes refreshes the atomic mirrors of len(queues)/len(registry);
// called by the owning goroutine after every mutation.
func (p *Proxy) noteSizes() {
	p.nQueues.Store(int64(len(p.queues)))
	p.nRegs.Store(int64(len(p.registry)))
}

// --- filter.Env -------------------------------------------------------------

// Clock implements filter.Env.
func (p *Proxy) Clock() *sim.Scheduler { return p.node.Clock() }

// Attach implements filter.Env: it splices hooks into the queue for
// exact key k, creating the queue if necessary. The queue and the
// attachment come off the proxy's free lists; the detach handle is the
// one allocation, and it does nothing once the attachment is gone —
// detached, or closed with its queue — whoever holds the struct now.
func (p *Proxy) Attach(k filter.Key, h filter.Hooks) (func(), error) {
	if k.IsWild() {
		return nil, fmt.Errorf("proxy: cannot attach hooks to wild-card key %v", k)
	}
	q := p.queues[k]
	if q == nil {
		if q = p.freeQueues.Get(); q == nil {
			q = new(queue)
		}
		q.key = k
		p.queues[k] = q
		p.noteSizes()
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
	// OnClose may itself have emptied and dropped q.
	if len(q.attached) == 0 && p.queues[q.key] == q {
		p.dropQueue(q)
	}
}

// RemoveStream implements filter.Env: tear down the queue for k.
func (p *Proxy) RemoveStream(k filter.Key) {
	if q := p.queues[k]; q != nil {
		p.dropQueue(q)
	}
}

// dropQueue tears a live queue down: out of the map, every attachment
// still in it closed, the teardown event, and the pieces onto the free
// lists. The attachments are marked detached before the first OnClose
// runs, so a handle called from an OnClose (the forward side of ttsf,
// wsize, snoop and cache detaches its reverse side) or at any time
// later finds nothing to close a second time.
func (p *Proxy) dropQueue(q *queue) {
	delete(p.queues, q.key)
	p.noteSizes()
	for _, a := range q.attached {
		a.q = nil
	}
	for _, a := range q.attached {
		if a.hooks.OnClose != nil {
			a.hooks.OnClose()
		}
	}
	p.obs.Emit("proxy", "queue-teardown", q.key.String(),
		obs.F("pkts", q.pkts), obs.F("bytes", q.bytes))
	if q == p.running {
		return
	}
	p.recycle(q, q.attached...)
	clear(q.attached)
	*q = queue{attached: q.attached[:0]}
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
	p.Stats.Injected.Add(1)
	p.node.InjectPacket(raw)
}

// Logf implements filter.Env.
func (p *Proxy) Logf(format string, args ...any) {
	if p.Log != nil {
		p.Log(fmt.Sprintf(format, args...))
	}
}

var _ filter.Env = (*Proxy)(nil)
var _ filter.Spawner = (*Proxy)(nil)
var _ filter.Metrics = (*Proxy)(nil)
var _ filter.FlowSampler = (*Proxy)(nil)

// FlowSRTT implements filter.FlowSampler: the smoothed RTT of k's flow
// out of this proxy's flow log. Owning-goroutine only, like the flow
// log itself — filter hooks and timers already run there.
func (p *Proxy) FlowSRTT(k filter.Key) (time.Duration, bool) {
	return p.flows.SRTT(k)
}

// SetMetricSource wires the proxy host's execution-environment
// variables (e.g. an eem.NodeSource) into the filters' Env.
func (p *Proxy) SetMetricSource(fn func(name string, index int) (float64, bool)) {
	p.metricSource = fn
}

// Metric implements filter.Metrics.
func (p *Proxy) Metric(name string, index int) (float64, bool) {
	if p.metricSource == nil {
		return 0, false
	}
	return p.metricSource(name, index)
}

// Spawn implements filter.Spawner: instantiate a loaded filter on an
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

// Intercept is the node packet hook — what New installs and what the
// inline data plane calls on the owning shard (in may be nil; the path
// ignores it). It runs InterceptAppend into the proxy's reusable emit
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
// freshly marshalled datagram the proxy never writes again. The
// batched shard pipeline relies on this to accumulate a whole batch's
// output before one sink delivery. The steady-state pass-through path
// (no matching service, or a clean traversal of the tcp filter) is
// allocation-free: the parsed view comes from the packet pool and is
// Released before returning.
func (p *Proxy) InterceptAppend(raw []byte, in *netsim.Iface, dst [][]byte) [][]byte {
	p.Stats.Intercepted.Add(1)
	pkt, err := filter.Parse(raw)
	if err != nil {
		return append(dst, raw) // unparseable: pass through untouched
	}
	if p.obs.PacketsTraced() {
		p.obs.EmitPacket("proxy", "intercept", pkt.Key.String(), raw)
	}
	if pkt.TCP != nil {
		p.flows.Record(pkt.Key, pkt.TCP, len(raw))
	}
	q := p.queues[pkt.Key]
	if q == nil {
		q = p.buildQueue(pkt.Key)
	}
	if q == nil || len(q.attached) == 0 {
		pkt.Release()
		return append(dst, raw)
	}
	p.Stats.Filtered.Add(1)
	q.pkts++
	q.bytes += int64(len(raw))

	// In queue: descending priority (attached is already sorted that
	// way). Read-only inspection.
	p.running = q
	for _, a := range q.attached {
		if a.hooks.In != nil && !a.quarantined {
			p.runHook(q, a, a.hooks.In, pkt)
		}
	}
	// Out queue: ascending priority — the highest-priority filter
	// writes last, overriding lower-priority changes (thesis §5.2).
	for i := len(q.attached) - 1; i >= 0; i-- {
		if a := q.attached[i]; a.hooks.Out != nil && !a.quarantined {
			p.runHook(q, a, a.hooks.Out, pkt)
		}
	}
	p.running = nil
	if q.pendingQuarantine {
		p.sweepQuarantined(q)
	}

	if pkt.Dropped() {
		p.Stats.DroppedByFilter.Add(1)
		p.obs.Emit("proxy", "filter-drop", q.key.String(), obs.F("len", len(raw)))
	} else {
		if pkt.Dirty() {
			// No filter remarshalled the modified packet: emit it with
			// its stale checksums, as an in-place edit would. Loading
			// the tcp bookkeeping filter prevents this.
			if err := pkt.RemarshalStale(); err != nil {
				p.Logf("proxy: remarshal of dirty packet failed: %v", err)
			}
		}
		p.Stats.Reinjected.Add(1)
		dst = append(dst, pkt.Raw)
	}
	for _, extra := range pkt.Injections() {
		p.Stats.Injected.Add(1)
		dst = append(dst, extra)
	}
	pkt.Release()
	return dst
}

// runHook invokes hook(pkt), converting a panic into a quarantine
// strike instead of a crash: a broken filter must never take the
// stream — or the proxy — down with it. The single static defer is
// open-coded by the compiler, so the no-panic path stays
// allocation-free (held to by the internal/perf gates).
func (p *Proxy) runHook(q *queue, a *attachment, hook func(*filter.Packet), pkt *filter.Packet) {
	defer func() {
		if r := recover(); r != nil {
			p.noteHookPanic(q, a, r)
		}
	}()
	hook(pkt)
}

// noteHookPanic records one strike against the attachment and marks it
// for quarantine once it reaches QuarantineStrikes.
func (p *Proxy) noteHookPanic(q *queue, a *attachment, r any) {
	p.Stats.HookPanics.Add(1)
	a.strikes++
	p.obs.Emit("proxy", "filter-panic", q.key.String(),
		obs.F("filter", a.hooks.Filter), obs.F("strikes", a.strikes),
		obs.F("err", fmt.Sprint(r)))
	p.Logf("proxy: filter %s panicked on %v (strike %d/%d): %v",
		a.hooks.Filter, q.key, a.strikes, QuarantineStrikes, r)
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
		p.Stats.FilterQuarantines.Add(1)
		p.obs.Emit("proxy", "filter-quarantine", q.key.String(),
			obs.F("filter", a.hooks.Filter), obs.F("strikes", a.strikes))
		p.Logf("proxy: filter %s quarantined on %v after %d panics (stream fails open)",
			a.hooks.Filter, q.key, a.strikes)
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

// matchesRegistry is the naive reference matcher: scan every
// registration for a (wild-card) key matching exact key k. The
// compiled match program must agree with this on every lookup (see the
// property test in match_test.go and the classifier package's parity
// fuzz target).
func (p *Proxy) matchesRegistry(k filter.Key) bool {
	for _, r := range p.registry {
		if r.key.Matches(k) {
			return true
		}
	}
	return false
}

// markProgramDirty flags the compiled program as stale. Every registry
// mutation calls it before returning, and program() recompiles before
// the next lookup, so no lookup can ever see a pre-mutation answer —
// there is no cached per-key state that can go stale, which is what
// retired the old negative-match cache (and its mass-eviction rescan
// cliff at 2^16 keys under SYN/FIN churn). Deferring the compile to
// the next lookup makes a burst of mutations cost one compile instead
// of one per mutation.
func (p *Proxy) markProgramDirty() { p.progDirty = true }

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
	p.Stats.RegistryRebuilds.Add(1)
}

// FlushMatchCache forces an immediate recompile of the registry match
// program. Steady state never needs this — registry mutations mark the
// program dirty and the next lookup rebuilds it — but the concurrent
// plane broadcasts it as a control message (exercising epoch-boundary
// program swaps under load), and tests use it after poking proxy
// internals.
func (p *Proxy) FlushMatchCache() { p.rebuildProgram() }

// buildQueue instantiates every registered filter whose wild-card key
// matches the new exact key (thesis: "a filter queue is built by
// creating a new instantiation of each filter object in the stream
// registry whose associated wild-card key matches the packet key").
// Returns nil when no registration matches. The compiled program
// answers the match in O(1) w.r.t. registry size and, on the
// (overwhelmingly common) no-match path, allocation-free.
func (p *Proxy) buildQueue(k filter.Key) *queue {
	p.matchScratch = p.program().AppendMatches(p.matchScratch[:0], k)
	if len(p.matchScratch) == 0 {
		p.Stats.RegistryMisses.Add(1)
		return nil
	}
	for _, i := range p.matchScratch {
		r := p.registry[i]
		if err := r.factory.New(p, k, r.args); err != nil {
			p.Logf("proxy: %s insertion on %v failed: %v", r.factory.Name(), k, err)
		}
	}
	q := p.queues[k] // filters attached via Env.Attach
	if q != nil {
		p.obs.Emit("proxy", "queue-build", k.String(), obs.F("filters", len(q.attached)))
	}
	return q
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
	p.noteSizes()
	p.markProgramDirty()
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
	p.noteSizes()
	p.markProgramDirty()
	if !k.IsWild() {
		if err := f.New(p, k, args); err != nil {
			// Roll back: a registration left behind after New fails
			// would respawn the broken filter on the next matching
			// packet. Recompiling from the restored registry is always
			// correct — unlike the retired negCache-snapshot restore,
			// there is no saved lookup state that an interleaved
			// mutation could make stale, because the program is a pure
			// function of p.registry and f.New (the only code that ran
			// since the append) has no path back into the registry:
			// filter.Env exposes Attach/RemoveStream/Spawn, none of
			// which touch registrations.
			p.registry = p.registry[:len(p.registry)-1]
			p.noteSizes()
			p.markProgramDirty()
			return err
		}
		return nil
	}
	// Service active streams that match the new wild-card.
	var live []filter.Key
	for qk := range p.queues {
		if k.Matches(qk) {
			live = append(live, qk)
		}
	}
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
	p.noteSizes()
	p.markProgramDirty()
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
	// not depend on map iteration.
	var keys []filter.Key
	for qk := range p.queues {
		if match(qk) {
			keys = append(keys, qk)
		}
	}
	filter.SortKeys(keys)
	removed := 0
	for _, qk := range keys {
		q := p.queues[qk]
		if q == nil {
			continue // emptied by an OnClose run for an earlier key
		}
		for _, a := range q.take(func(a *attachment) bool { return a.hooks.Filter == name }) {
			if a.hooks.OnClose != nil {
				a.hooks.OnClose()
			}
			removed++
			p.recycle(q, a)
		}
		if len(q.attached) == 0 && p.queues[qk] == q {
			p.dropQueue(q)
		}
	}
	return removed
}

// ReportData gathers the raw report listing: the filter names to show
// (sorted) and, per filter, the stream keys it services. The sharded
// data plane merges the per-shard maps before rendering.
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
	for qk, q := range p.queues {
		for _, a := range q.attached {
			perFilter[a.hooks.Filter] = append(perFilter[a.hooks.Filter], qk.String())
		}
	}
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
	for k, q := range p.queues {
		si := StreamInfo{Key: k, Packets: q.pkts, Bytes: q.bytes}
		for _, a := range q.attached {
			si.Filters = append(si.Filters, a.hooks.Filter)
		}
		out = append(out, si)
	}
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

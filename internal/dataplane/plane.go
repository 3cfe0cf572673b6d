package dataplane

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmdspec"
	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// Sink receives each shard's interception output in concurrent mode,
// one call per drained batch: out holds the surviving datagrams of
// every packet in the batch, in interception order. The slice is the
// shard's reusable delivery buffer — valid only until that shard's
// next batch — so the sink must consume (forward, count, copy)
// synchronously, exactly like netsim's hook contract. The referenced
// buffers themselves are stable (see proxy.InterceptAppend).
type Sink func(shard int, out [][]byte)

// DefaultBatchSize is the number of packets accumulated per ring slot
// when BatchSize is zero. Batching amortizes the per-slot handoff
// (atomics, empty-transition wakeup, consumer park/unpark) over the
// batch, which is what lets the concurrent plane scale with shards
// instead of drowning in per-packet signaling.
const DefaultBatchSize = 64

// DefaultFlushInterval bounds how long a partial batch may sit in a
// shard's open arena before the flush timer seals it, keeping latency
// deterministic under trickle traffic.
const DefaultFlushInterval = time.Millisecond

// Plane is the sharded data plane: N proxy shards behind a
// flow-steering dispatcher, plus the epoch/quiesce control plane that
// keeps the telnet interface (and Kati behind it) working unchanged.
type Plane struct {
	shards  []*proxy.Proxy
	workers []*worker // nil in inline mode
	n       int

	// bus receives the single "proxy/command" event per control line.
	bus *obs.Bus

	// epoch counts applied control-plane mutations. A reader that
	// observes epoch E is guaranteed every shard has applied mutations
	// 1..E: the counter is bumped only after the quiesce barrier.
	epoch atomic.Uint64

	// flushStop/flushDone bracket the flush-timer goroutine that seals
	// aged partial batches (concurrent mode, FlushInterval >= 0).
	flushStop chan struct{}
	flushDone chan struct{}

	// watchdogTrips counts shard-stall detections (concurrent mode).
	watchdogTrips atomic.Int64

	// ext holds runtime-registered extension commands (e.g. the policy
	// engine's "policy"), dispatched ahead of shard routing so they
	// work at every shard count. Extension names are appended to the
	// plane's help line.
	ext map[string]func(args []string) string

	closed bool
}

// NewInline builds a plane whose steering and interception run
// synchronously on the caller's goroutine — inside the deterministic
// simulator. It installs itself as node's packet hook. With shards=1
// the plane is a transparent wrapper over today's proxy: same hook,
// same events, same bytes.
func NewInline(node *netsim.Node, catalog *filter.Catalog, shards int) *Plane {
	if shards < 1 {
		shards = 1
	}
	pl := &Plane{n: shards}
	for i := 0; i < shards; i++ {
		pl.shards = append(pl.shards, proxy.NewDetached(node, catalog))
	}
	node.SetHook(pl.Hook)
	return pl
}

// ConcurrentConfig shapes NewConcurrent.
type ConcurrentConfig struct {
	Shards  int
	Catalog *filter.Catalog
	// Seed seeds each shard's private scheduler (shard i gets
	// Seed + i), so filters drawing randomness stay single-writer.
	Seed int64
	// RingSize bounds each shard's SPSC ring in batch slots (rounded
	// up to a power of two; default 1024). The ring's capacity in
	// packets is RingSize × BatchSize.
	RingSize int
	// BatchSize is the number of packets accumulated per ring slot
	// (DefaultBatchSize when 0). 1 degenerates to the per-packet
	// handoff of the pre-batching plane — every packet pays the full
	// slot cost — and exists for comparison benchmarks and tests.
	BatchSize int
	// FlushInterval bounds how long a partial batch may wait in a
	// shard's open arena before the flush timer seals it
	// (DefaultFlushInterval when 0). Negative disables the timer:
	// partial batches then move only at size, quiesce, Drain, or
	// Close boundaries — tests use this for deterministic batching.
	FlushInterval time.Duration
	// Sink receives interception output; nil discards it.
	Sink Sink
}

// NewConcurrent builds a plane with one goroutine per shard, each fed
// whole batches through a bounded SPSC ring. Each shard owns a private
// scheduler and node (filter timers never fire — this mode is for
// throughput paths and stress tests, not the deterministic
// experiments; see DESIGN.md).
func NewConcurrent(cfg ConcurrentConfig) *Plane {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = 1024
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	pl := &Plane{n: n}
	for i := 0; i < n; i++ {
		s := sim.NewScheduler(cfg.Seed + int64(i))
		net := netsim.New(s)
		node := net.AddNode(fmt.Sprintf("shard%d", i))
		w := &worker{
			idx:      i,
			prox:     proxy.NewDetached(node, cfg.Catalog),
			ring:     newRing(size),
			free:     newRing(size + 2), // every in-flight arena fits: ring slots + open + draining
			sink:     cfg.Sink,
			batchCap: batch,
			open:     make([][]byte, 0, batch),
			ctrl:     make(chan ctrlMsg, 4),
			wake:     make(chan struct{}, 1),
			stop:     make(chan struct{}),
			done:     make(chan struct{}),
		}
		pl.shards = append(pl.shards, w.prox)
		pl.workers = append(pl.workers, w)
	}
	for _, w := range pl.workers {
		go w.run()
	}
	interval := cfg.FlushInterval
	if interval == 0 {
		interval = DefaultFlushInterval
	}
	if interval > 0 {
		pl.flushStop = make(chan struct{})
		pl.flushDone = make(chan struct{})
		go pl.flushLoop(interval)
	}
	return pl
}

// flushLoop is the partial-batch flush timer: every interval it seals
// any open arena holding packets, bounding how long a packet can wait
// for its batch to fill under trickle traffic.
func (pl *Plane) flushLoop(interval time.Duration) {
	defer close(pl.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-pl.flushStop:
			return
		case <-t.C:
			for _, w := range pl.workers {
				if w.pending() {
					w.flush()
				}
			}
		}
	}
}

// N returns the shard count.
func (pl *Plane) N() int { return pl.n }

// Epoch returns the number of applied control-plane mutations.
func (pl *Plane) Epoch() uint64 { return pl.epoch.Load() }

// Shard exposes shard i's proxy. In concurrent mode only its atomic
// surface (Stats, QueueCount, RegistrationCount) is safe to touch from
// outside the shard goroutine.
func (pl *Plane) Shard(i int) *proxy.Proxy { return pl.shards[i] }

func (pl *Plane) inline() bool { return pl.workers == nil }

// --- packet path -------------------------------------------------------------

// Hook is the inline-mode node packet hook: steer, then run the owning
// shard's interception synchronously. Allocation-free: SteerKey reads
// the raw bytes in place and the shard reuses its emit list.
func (pl *Plane) Hook(raw []byte, in *netsim.Iface) [][]byte {
	if pl.n == 1 {
		return pl.shards[0].Intercept(raw, in)
	}
	return pl.shards[pl.steer(raw)].Intercept(raw, in)
}

// Dispatch steers raw into its shard's open batch arena (concurrent
// mode). The packet reaches the shard when the arena fills to the
// batch size, the flush timer fires, or a quiesce/Drain seals it. A
// full ring applies backpressure: the producer wakes the consumer and
// yields until a slot frees, so packets are delayed, never dropped.
func (pl *Plane) Dispatch(raw []byte) {
	pl.workers[pl.steer(raw)].enqueue(raw)
}

// DispatchBurst steers a burst of packets, paying the per-shard
// producer lock once per run of consecutive same-shard packets — the
// receive-burst idiom of DPDK-style planes, where packets arrive in
// bursts that often share flows.
func (pl *Plane) DispatchBurst(raws [][]byte) {
	if len(raws) == 0 {
		return
	}
	start, cur := 0, pl.steer(raws[0])
	for i := 1; i < len(raws); i++ {
		if si := pl.steer(raws[i]); si != cur {
			pl.workers[cur].enqueueBurst(raws[start:i])
			start, cur = i, si
		}
	}
	pl.workers[cur].enqueueBurst(raws[start:])
}

// Flush seals every shard's open partial batch onto its ring. Drain
// and the quiesce broadcast call it implicitly; tests running with the
// flush timer disabled call it directly.
func (pl *Plane) Flush() {
	if pl.inline() {
		return
	}
	for _, w := range pl.workers {
		w.flush()
	}
}

// Drain blocks until every open batch is sealed, every ring is empty,
// and every shard has passed a batch boundary — all packets dispatched
// before the call have been fully processed and delivered. The caller
// must not dispatch concurrently.
func (pl *Plane) Drain() {
	if pl.inline() {
		return
	}
	for _, w := range pl.workers {
		w.flush()
		for w.ring.len() > 0 {
			w.wakeup()
			runtime.Gosched()
		}
	}
	pl.do(func(int, *proxy.Proxy) {}) // quiesce: in-flight batch completes
}

// Stalls returns the total dispatcher spins on full rings — a
// backpressure indicator for sizing RingSize.
func (pl *Plane) Stalls() int64 {
	var t int64
	for _, w := range pl.workers {
		t += w.stalls.Load()
	}
	return t
}

// Batches returns the total batches drained across shards.
func (pl *Plane) Batches() int64 {
	var t int64
	for _, w := range pl.workers {
		t += w.batches.Load()
	}
	return t
}

// Wakeups returns the total wakeup signals sent to shard goroutines —
// at most one per batch by construction. Batches()/Wakeups() is the
// handoff amortization factor the batching exists to maximize.
func (pl *Plane) Wakeups() int64 {
	var t int64
	for _, w := range pl.workers {
		t += w.wakes.Load()
	}
	return t
}

// Close stops the shard goroutines after sealing open batches and
// draining the rings. The plane must not be used afterwards. No-op in
// inline mode.
func (pl *Plane) Close() {
	if pl.inline() || pl.closed {
		return
	}
	pl.closed = true
	if pl.flushStop != nil {
		// Stop the flush timer first: a flush racing the workers'
		// stop-drain could seal a batch after its ring was drained.
		close(pl.flushStop)
		<-pl.flushDone
	}
	for _, w := range pl.workers {
		w.flush()
		close(w.stop)
		w.wakeup()
	}
	for _, w := range pl.workers {
		<-w.done
	}
}

// --- shard watchdog ----------------------------------------------------------

// StartWatchdog launches a wall-clock monitor over the concurrent
// shards: a shard that holds backlog (ring batches or queued control
// messages) across a full interval without making any progress is
// flagged stalled, counted in WatchdogTrips, and nudged awake — which
// also heals the one benign cause, a lost wakeup. Progress is the
// worker's fine-grained counter — batch pickups, every packet inside a
// batch, control executions — not completed batches: a shard grinding
// through a large in-flight batch advances it packet by packet and is
// never spuriously flagged just because no whole batch finished within
// the interval. The flag clears on its own when the shard makes
// progress again. Inline planes run on the caller's goroutine and
// cannot stall independently, so the watchdog is a no-op there.
// Returns a stop function (idempotent).
func (pl *Plane) StartWatchdog(interval time.Duration) (stop func()) {
	if pl.inline() {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	stopCh := make(chan struct{})
	var once sync.Once
	last := make([]int64, len(pl.workers))
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				for i, w := range pl.workers {
					p := w.progress.Load()
					backlog := w.ring.len() > 0 || len(w.ctrl) > 0
					if backlog && p == last[i] {
						if !w.stalled.Swap(true) {
							pl.watchdogTrips.Add(1)
						}
						w.wakeup()
					} else if p != last[i] || !backlog {
						w.stalled.Store(false)
					}
					last[i] = p
				}
			}
		}
	}()
	return func() { once.Do(func() { close(stopCh) }) }
}

// StalledShards returns the indices currently flagged by the watchdog,
// in order. Empty on a healthy (or inline) plane.
func (pl *Plane) StalledShards() []int {
	var out []int
	for i, w := range pl.workers {
		if w.stalled.Load() {
			out = append(out, i)
		}
	}
	return out
}

// WatchdogTrips returns the cumulative number of stall detections.
func (pl *Plane) WatchdogTrips() int64 { return pl.watchdogTrips.Load() }

// InjectStall wedges shard i's goroutine for d at its next batch
// boundary — the fault-injection primitive the watchdog tests and the
// chaos harness use. Fire-and-forget: the caller is not blocked for
// the stall's duration. No-op in inline mode.
func (pl *Plane) InjectStall(i int, d time.Duration) {
	if pl.inline() {
		return
	}
	pl.workers[i].send(ctrlMsg{fn: func(*proxy.Proxy) { time.Sleep(d) }})
}

// Processed returns shard i's count of fully intercepted packets.
func (pl *Plane) Processed(i int) int64 {
	if pl.inline() {
		return pl.shards[i].Stats.Intercepted.Load()
	}
	return pl.workers[i].processed.Load()
}

// --- epoch/quiesce control protocol ------------------------------------------

// do runs fn against every shard's proxy and returns when all have
// finished. Inline: direct calls in shard order. Concurrent: each
// shard's open partial batch is sealed first, then fn is executed by
// the shard goroutine at a batch boundary — do is both the mutation
// broadcast and the quiesce barrier, and a mutation can never land
// mid-batch. The barrier is bounded: a worker reaches the next batch
// boundary within at most one batch of packets. fn runs concurrently
// across shards; it must not share unsynchronized state.
func (pl *Plane) do(fn func(i int, p *proxy.Proxy)) {
	if pl.inline() {
		for i, s := range pl.shards {
			fn(i, s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(pl.workers))
	for i, w := range pl.workers {
		i := i
		w.flush() // quiesce seals partial batches: no packet waits out a mutation in an open arena
		w.send(ctrlMsg{fn: func(p *proxy.Proxy) { fn(i, p) }, done: &wg})
	}
	wg.Wait()
}

// doShard is do for a single shard.
func (pl *Plane) doShard(i int, fn func(p *proxy.Proxy)) {
	if pl.inline() {
		fn(pl.shards[i])
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	pl.workers[i].flush()
	pl.workers[i].send(ctrlMsg{fn: fn, done: &wg})
	wg.Wait()
}

// mutate is do plus an epoch bump after the barrier.
func (pl *Plane) mutate(fn func(i int, p *proxy.Proxy)) {
	pl.do(fn)
	pl.epoch.Add(1)
}

// --- control plane -----------------------------------------------------------

// SetObs attaches the deployment bus and metrics registry to the plane
// and every shard (inline mode only: shards in concurrent mode run on
// private schedulers and must not share a scheduler-bound bus).
func (pl *Plane) SetObs(b *obs.Bus, r *obs.Registry) {
	if !pl.inline() {
		panic("dataplane: SetObs is inline-only (concurrent shards own private schedulers)")
	}
	pl.bus = b
	for _, s := range pl.shards {
		s.SetObs(b, r)
	}
}

// SetMetricSource forwards the execution-environment variable source
// to every shard (filters are EEM clients, thesis ch. 6).
func (pl *Plane) SetMetricSource(fn func(name string, index int) (float64, bool)) {
	pl.do(func(_ int, p *proxy.Proxy) { p.SetMetricSource(fn) })
}

// SetLog forwards the diagnostic log sink to every shard.
func (pl *Plane) SetLog(fn func(string)) {
	pl.do(func(_ int, p *proxy.Proxy) { p.Log = fn })
}

// FlushMatchCache recompiles every shard's registry match program. The
// broadcast rides the quiesce/epoch barrier like any other mutation,
// so each shard swaps its program between batches — no packet can
// observe a half-built program, and once the call returns every shard
// answers from a program at least as new as the current registry.
func (pl *Plane) FlushMatchCache() {
	pl.do(func(_ int, p *proxy.Proxy) { p.FlushMatchCache() })
}

// StatsSnapshot returns the exact merged counters across shards (each
// counter is a single-writer atomic).
func (pl *Plane) StatsSnapshot() proxy.StatsSnapshot {
	var t proxy.StatsSnapshot
	for _, s := range pl.shards {
		t = t.Merge(s.Stats.Snapshot())
	}
	return t
}

// RegisterMetrics exposes the plane's counters. With one inline shard
// it delegates to the proxy so the "stats" table is byte-identical to
// the unsharded deployment; otherwise it registers merged aggregates
// plus per-shard breakdowns and the control epoch.
func (pl *Plane) RegisterMetrics(r *obs.Registry, prefix string) {
	if pl.n == 1 && pl.inline() {
		pl.shards[0].RegisterMetrics(r, prefix)
		return
	}
	r.Counter(prefix+".intercepted", func() int64 { return pl.StatsSnapshot().Intercepted })
	r.Counter(prefix+".filtered", func() int64 { return pl.StatsSnapshot().Filtered })
	r.Counter(prefix+".dropped_by_filter", func() int64 { return pl.StatsSnapshot().DroppedByFilter })
	r.Counter(prefix+".injected", func() int64 { return pl.StatsSnapshot().Injected })
	r.Counter(prefix+".reinjected", func() int64 { return pl.StatsSnapshot().Reinjected })
	r.Counter(prefix+".hook_panics", func() int64 { return pl.StatsSnapshot().HookPanics })
	r.Counter(prefix+".filter_quarantines", func() int64 { return pl.StatsSnapshot().FilterQuarantines })
	r.Counter(prefix+".registry_misses", func() int64 { return pl.StatsSnapshot().RegistryMisses })
	r.Counter(prefix+".registry_rebuilds", func() int64 { return pl.StatsSnapshot().RegistryRebuilds })
	r.Gauge(prefix+".flow.active", func() float64 { return float64(pl.FlowStats().Active) })
	r.Counter(prefix+".flow.opened", func() int64 { return pl.FlowStats().Opened })
	r.Counter(prefix+".flow.closed", func() int64 { return pl.FlowStats().Closed })
	r.Counter(prefix+".flow.evicted", func() int64 { return pl.FlowStats().Evicted })
	r.Counter(prefix+".flow.retrans", func() int64 { return pl.FlowStats().Retrans })
	r.Counter(prefix+".flow.zero_win", func() int64 { return pl.FlowStats().ZeroWin })
	r.Gauge(prefix+".streams", func() float64 {
		var t int64
		for _, s := range pl.shards {
			t += s.QueueCount()
		}
		return float64(t)
	})
	r.Gauge(prefix+".registrations", func() float64 {
		var t int64
		for _, s := range pl.shards {
			t += s.RegistrationCount()
		}
		return float64(t)
	})
	r.Gauge(prefix+".shards", func() float64 { return float64(pl.n) })
	r.Counter(prefix+".epoch", func() int64 { return int64(pl.Epoch()) })
	if !pl.inline() {
		r.Counter(prefix+".watchdog_trips", func() int64 { return pl.WatchdogTrips() })
		r.Gauge(prefix+".stalled_shards", func() float64 { return float64(len(pl.StalledShards())) })
		r.Counter(prefix+".batches", func() int64 { return pl.Batches() })
		r.Counter(prefix+".wakeups", func() int64 { return pl.Wakeups() })
		r.Counter(prefix+".ring_stalls", func() int64 { return pl.Stalls() })
	}
	for i, s := range pl.shards {
		s := s
		sp := fmt.Sprintf("%s.shard%d", prefix, i)
		r.Counter(sp+".intercepted", func() int64 { return s.Stats.Intercepted.Load() })
		r.Counter(sp+".filtered", func() int64 { return s.Stats.Filtered.Load() })
		r.Gauge(sp+".streams", func() float64 { return float64(s.QueueCount()) })
	}
}

// RegisterCommand installs an extension command on the plane's control
// surface: lines starting with name are handed to fn (arguments only,
// command word stripped) instead of the shard grammar, and name is
// appended to the plane's help line. Extensions let subsystems that
// live above the shards — the policy engine above all — speak the same
// telnet dialect as everything else.
func (pl *Plane) RegisterCommand(name string, fn func(args []string) string) {
	if pl.ext == nil {
		pl.ext = make(map[string]func(args []string) string)
	}
	pl.ext[name] = fn
}

// extNames lists registered extension commands, sorted.
func (pl *Plane) extNames() []string {
	out := make([]string, 0, len(pl.ext))
	for n := range pl.ext {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Command implements proxy.Commander over the sharded plane. Extension
// commands dispatch first (they exist at the plane, not on any shard).
// Every other line costs one "proxy/command" event, emitted here so the
// event log does not depend on the shard count, and routes by the
// shared cmdspec table: exact-key add/delete go to the owning shard,
// registry/service mutations broadcast under the quiesce protocol,
// report/streams/flows merge per-shard state, and shared-state queries
// (stats, events, filters, services, help) answer from shard 0. One
// inline shard is not a special case: do/doShard call it directly, and
// the merged renderers are the ones the proxy's own handlers use.
func (pl *Plane) Command(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	if fn, ok := pl.ext[fields[0]]; ok {
		pl.bus.Emit("proxy", "command", fields[0], obs.F("args", len(fields)-1))
		if spec, known := cmdspec.Lookup(fields[0]); known && !spec.ArityOK(len(fields)-1) {
			return spec.UsageError()
		}
		return fn(fields[1:])
	}
	if fields[0] == "help" && len(pl.ext) > 0 {
		// Answer help at the plane so extension commands are listed
		// regardless of shard count.
		pl.bus.Emit("proxy", "command", fields[0], obs.F("args", len(fields)-1))
		return cmdspec.HelpLine(pl.extNames()...)
	}
	pl.bus.Emit("proxy", "command", fields[0], obs.F("args", len(fields)-1))
	route := cmdspec.RouteShard0
	if spec, known := cmdspec.Lookup(fields[0]); known {
		route = spec.Route
	}
	switch route {
	case cmdspec.RouteKeyed:
		if len(fields) >= 6 {
			if k, err := filter.ParseKey(fields[2:6]); err == nil && !k.IsWild() {
				// Exact key: only the owning shard can ever see matching
				// packets (both directions steer identically), so route
				// there instead of building ghost queues on every shard.
				var out string
				pl.doShard(ShardOf(k, pl.n), func(p *proxy.Proxy) { out = p.Exec(line) })
				pl.epoch.Add(1)
				return out
			}
		}
		return pl.broadcast(line)
	case cmdspec.RouteBroadcast:
		return pl.broadcast(line)
	case cmdspec.RouteMergedReport:
		name := ""
		if len(fields) > 1 {
			name = fields[1]
		}
		return pl.mergedReport(name)
	case cmdspec.RouteMergedStreams:
		return proxy.RenderStreams(pl.Streams())
	case cmdspec.RouteMergedFlows:
		spec, _ := cmdspec.Lookup(fields[0])
		n := flowlog.DefaultShow
		if !spec.ArityOK(len(fields) - 1) {
			return spec.UsageError()
		}
		if len(fields) > 1 {
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil {
				return spec.UsageError()
			}
		}
		return pl.mergedFlows(n)
	default:
		// Identical shared state on every shard — answer from shard 0.
		var out string
		pl.doShard(0, func(p *proxy.Proxy) { out = p.Exec(line) })
		return out
	}
}

// --- typed control surface ----------------------------------------------------
//
// The policy engine mutates filter state through these methods rather
// than rendered command lines, so its rollback logic can branch on the
// typed sentinels (proxy.ErrNotLoaded, proxy.ErrAlreadyLoaded,
// proxy.ErrNoSuchStream, filter.ErrUnknownFilter). Routing matches
// Command exactly; no "proxy/command" event is emitted — the engine
// emits its own policy/* transitions instead.

// LoadFilter loads a filter library on every shard.
func (pl *Plane) LoadFilter(libName string) (string, error) {
	names := make([]string, pl.n)
	err := pl.mutateErr(func(i int, p *proxy.Proxy) (err error) {
		names[i], err = p.LoadFilter(libName)
		return err
	})
	if err != nil {
		return "", err
	}
	return names[0], nil
}

// UnloadFilter unloads a filter library from every shard.
func (pl *Plane) UnloadFilter(name string) error {
	return pl.mutateErr(func(_ int, p *proxy.Proxy) error { return p.UnloadFilter(name) })
}

// AddFilter binds a loaded filter (or defined service) to a stream
// key: exact keys route to the owning shard, wild-cards broadcast.
func (pl *Plane) AddFilter(name string, k filter.Key, args []string) error {
	return pl.keyed(k, func(p *proxy.Proxy) error { return p.AddFilter(name, k, args) })
}

// DeleteFilter removes a filter's registration and attachments for a
// stream key, routed like AddFilter.
func (pl *Plane) DeleteFilter(name string, k filter.Key) error {
	return pl.keyed(k, func(p *proxy.Proxy) error { return p.DeleteFilter(name, k) })
}

// mutateErr is mutate for operations that can fail: shards are
// deterministic replicas for registry/pool/service state, so their
// errors agree and the first one is returned.
func (pl *Plane) mutateErr(fn func(i int, p *proxy.Proxy) error) error {
	errs := make([]error, pl.n)
	pl.mutate(func(i int, p *proxy.Proxy) { errs[i] = fn(i, p) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// keyed applies fn where packets matching k can be seen: on the owning
// shard for an exact key (both directions steer identically, so no
// other shard ever needs the binding), on every shard for a wild-card.
func (pl *Plane) keyed(k filter.Key, fn func(p *proxy.Proxy) error) error {
	if k.IsWild() {
		return pl.mutateErr(func(_ int, p *proxy.Proxy) error { return fn(p) })
	}
	var err error
	pl.doShard(ShardOf(k, pl.n), func(p *proxy.Proxy) { err = fn(p) })
	pl.epoch.Add(1)
	return err
}

// broadcast Execs line on every shard under the quiesce barrier and
// returns shard 0's output (shards are deterministic replicas for
// registry/pool/service state, so outputs agree; any error wins).
func (pl *Plane) broadcast(line string) string {
	outs := make([]string, pl.n)
	pl.mutate(func(i int, p *proxy.Proxy) { outs[i] = p.Exec(line) })
	for _, o := range outs {
		if strings.HasPrefix(o, "error") {
			return o
		}
	}
	return outs[0]
}

// mergedReport gathers ReportData from every shard and renders one
// listing (keys are sorted and deduplicated by the renderer, so the
// shard partitioning is invisible).
func (pl *Plane) mergedReport(name string) string {
	type res struct {
		names []string
		per   map[string][]string
		err   error
	}
	rs := make([]res, pl.n)
	pl.do(func(i int, p *proxy.Proxy) {
		rs[i].names, rs[i].per, rs[i].err = p.ReportData(name)
	})
	for _, r := range rs {
		if r.err != nil {
			return fmt.Sprintf("error: %v\n", r.err)
		}
	}
	merged := make(map[string][]string)
	for _, r := range rs {
		for f, keys := range r.per {
			merged[f] = append(merged[f], keys...)
		}
	}
	return proxy.RenderReport(rs[0].names, merged)
}

// Streams returns the merged per-stream accounting across shards,
// sorted by key.
func (pl *Plane) Streams() []proxy.StreamInfo {
	rs := make([][]proxy.StreamInfo, pl.n)
	pl.do(func(i int, p *proxy.Proxy) { rs[i] = p.Streams() })
	var out []proxy.StreamInfo
	for _, r := range rs {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// FlowRecords gathers every shard's flow records under the quiesce
// barrier. Steering is direction-normalized, so each flow lives whole
// on exactly one shard: concatenation is the complete merge, and the
// renderer's total order makes the output independent of the layout.
func (pl *Plane) FlowRecords() []flowlog.Record {
	rs := make([][]flowlog.Record, pl.n)
	pl.do(func(i int, p *proxy.Proxy) { rs[i] = p.AppendFlowRecords(nil) })
	var out []flowlog.Record
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// FlowStats returns the merged flow-log counters across shards.
func (pl *Plane) FlowStats() flowlog.StatsSnapshot {
	var t flowlog.StatsSnapshot
	for _, s := range pl.shards {
		t = t.Merge(s.FlowStats())
	}
	return t
}

func (pl *Plane) mergedFlows(n int) string {
	return flowlog.Render(pl.FlowRecords(), n)
}

var _ proxy.Commander = (*Plane)(nil)

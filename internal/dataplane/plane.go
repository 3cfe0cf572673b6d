package dataplane

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proxy"
)

// Plane is the sharded data plane: N proxy shards behind a
// flow-steering dispatcher, plus the epoch/quiesce control plane that
// keeps the telnet interface (and Kati behind it) working unchanged.
// It holds what is the same however the shards run — steering, Command,
// the typed control surface (where all routing lives), stream
// migration, epoch and extensions — and reaches the shards' proxies
// through exec, chosen once by the constructor.
type Plane struct {
	shards []*proxy.Proxy
	n      int

	exec executor
	// ring is exec on a NewConcurrent plane, nil otherwise: Dispatch
	// calls the owning worker on the concrete type, not through exec.
	ring *ringExec

	// bus receives the single "proxy/command" event per control line;
	// bus and metrics are what the stats and events commands read.
	bus     *obs.Bus
	metrics *obs.Registry

	// epoch counts applied control-plane mutations. A reader that
	// observes epoch E is guaranteed every shard has applied mutations
	// 1..E: the counter is bumped only after the quiesce barrier.
	epoch atomic.Uint64

	// ext holds runtime-registered extension commands (e.g. the policy
	// engine's "policy"), dispatched ahead of shard routing so they
	// work at every shard count. Extension names are appended to the
	// plane's help line.
	ext map[string]func(args []string) string
}

// NewInline builds a plane over inlineExec: steering, interception and
// control all run synchronously on the caller's goroutine — inside the
// deterministic simulator. It installs itself as node's packet hook.
// With shards=1 the plane is a transparent wrapper over today's proxy:
// same hook, same events, same bytes.
func NewInline(node *netsim.Node, catalog *filter.Catalog, shards int) *Plane {
	if shards < 1 {
		shards = 1
	}
	pl := &Plane{n: shards}
	for i := 0; i < shards; i++ {
		pl.shards = append(pl.shards, proxy.NewDetached(node, catalog))
	}
	pl.exec = inlineExec{pl.shards}
	node.SetHook(pl.Hook)
	return pl
}

// NewConcurrent builds a plane over ringExec: one goroutine per shard,
// each fed whole batches through a bounded SPSC ring by Dispatch. This
// is the throughput path of the benchmark and the stress tests, not
// the deterministic experiments: see ringExec for what it does not run.
func NewConcurrent(cfg ConcurrentConfig) *Plane {
	e := newRingExec(cfg)
	pl := &Plane{n: len(e.workers), exec: e, ring: e}
	for _, w := range e.workers {
		pl.shards = append(pl.shards, w.prox)
	}
	return pl
}

// N returns the shard count.
func (pl *Plane) N() int { return pl.n }

// Epoch returns the number of applied control-plane mutations.
func (pl *Plane) Epoch() uint64 { return pl.epoch.Load() }

// Shard exposes shard i's proxy. On a concurrent plane only its atomic
// surface (Stats, QueueCount, RegistrationCount) is safe to touch from
// outside the shard goroutine.
func (pl *Plane) Shard(i int) *proxy.Proxy { return pl.shards[i] }

// --- packet path -------------------------------------------------------------

// Hook is the inline plane's node packet hook: steer, then run the
// owning shard's interception synchronously. Allocation-free: SteerKey
// reads the raw bytes in place and the shard reuses its emit list.
func (pl *Plane) Hook(raw []byte, in *netsim.Iface) [][]byte {
	if pl.n == 1 {
		return pl.shards[0].Intercept(raw, in)
	}
	return pl.shards[pl.steer(raw)].Intercept(raw, in)
}

// Dispatch is the concurrent plane's packet entry: it steers raw into
// its shard's open batch arena. An idle shard takes the arena at once
// (a parked one is woken by this packet); a busy one finds it sealed
// at the batch size, or takes it partial when its ring runs dry. A full
// ring applies backpressure: the producer wakes the consumer and
// yields until a slot frees, so packets are delayed, never dropped.
func (pl *Plane) Dispatch(raw []byte) {
	pl.ring.workers[pl.steer(raw)].enqueue(raw)
}

// Drain blocks until every open batch is sealed, every ring is empty,
// and every shard has passed a batch boundary — all packets dispatched
// before the call have been fully processed and delivered. The caller
// must not dispatch concurrently.
func (pl *Plane) Drain() { pl.exec.drain() }

// Stalls returns the total dispatcher spins on full rings — a
// backpressure indicator for sizing RingSize.
func (pl *Plane) Stalls() int64 { return pl.exec.counters().stalls }

// Batches returns the total batches drained across shards.
func (pl *Plane) Batches() int64 { return pl.exec.counters().batches }

// Wakeups returns the total wakeup signals sent to shard goroutines —
// at most one per batch by construction. Batches()/Wakeups() is the
// handoff amortization factor the batching exists to maximize.
func (pl *Plane) Wakeups() int64 { return pl.exec.counters().wakeups }

// Close stops the shard goroutines after sealing open batches and
// draining the rings. The plane must not be used afterwards.
func (pl *Plane) Close() { pl.exec.close() }

// --- shard watchdog ----------------------------------------------------------

// StartWatchdog launches a wall-clock monitor over the shard
// goroutines: a shard holding backlog (ring batches or queued control
// messages) that made no progress since the last look is nudged awake
// — which heals the one benign cause, a lost wakeup — and at the
// second such look in a row (stallLooks) is flagged stalled and counted
// in WatchdogTrips. The flag clears when the shard makes progress
// again. A plane that intercepts on its caller's goroutine has nothing
// to watch. Returns a stop function (idempotent).
func (pl *Plane) StartWatchdog(interval time.Duration) (stop func()) {
	return pl.exec.startWatchdog(interval)
}

// StalledShards returns the indices currently flagged by the watchdog,
// in order. Empty on a healthy plane.
func (pl *Plane) StalledShards() []int { return pl.exec.stalledShards() }

// WatchdogTrips returns the cumulative number of stall detections.
func (pl *Plane) WatchdogTrips() int64 { return pl.exec.watchdogTrips() }

// InjectStall wedges shard i's goroutine for d at its next batch
// boundary — the fault-injection primitive of the watchdog tests.
// Fire-and-forget: the caller is not blocked for the stall's duration.
func (pl *Plane) InjectStall(i int, d time.Duration) { pl.exec.injectStall(i, d) }

// --- control plane -----------------------------------------------------------

// mutate broadcasts fn under the quiesce barrier, then bumps the epoch.
func (pl *Plane) mutate(fn func(i int, p *proxy.Proxy)) {
	pl.exec.all(fn)
	pl.epoch.Add(1)
}

// SetObs attaches the deployment bus and metrics registry to the plane
// and every shard. The concurrent plane refuses (see ringExec).
func (pl *Plane) SetObs(b *obs.Bus, r *obs.Registry) {
	pl.exec.setObs(b, r)
	pl.bus, pl.metrics = b, r
}

// SetMetricSource forwards the execution-environment variable source
// to every shard (filters are EEM clients, thesis ch. 6).
func (pl *Plane) SetMetricSource(fn func(name string, index int) (float64, bool)) {
	pl.exec.all(func(_ int, p *proxy.Proxy) { p.SetMetricSource(fn) })
}

// FlushMatchCache recompiles every shard's registry match program. The
// broadcast rides the quiesce/epoch barrier like any other mutation,
// so each shard swaps its program between batches — no packet can
// observe a half-built program, and once the call returns every shard
// answers from a program at least as new as the current registry.
func (pl *Plane) FlushMatchCache() {
	pl.exec.all(func(_ int, p *proxy.Proxy) { p.FlushMatchCache() })
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

// RegisterMetrics exposes the plane's counters: merged aggregates,
// per-shard breakdowns and the control epoch, plus whatever rows the
// executor adds (or, for one inline shard, the proxy's own table).
func (pl *Plane) RegisterMetrics(r *obs.Registry, prefix string) {
	pl.exec.registerMetrics(pl, r, prefix)
}

// registerMerged is the part of RegisterMetrics both executors share.
func (pl *Plane) registerMerged(r *obs.Registry, prefix string) {
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

// Help is the SP help line with the registered extension commands
// appended, sorted.
func (pl *Plane) Help() string {
	names := make([]string, 0, len(pl.ext))
	for n := range pl.ext {
		names = append(names, n)
	}
	return proxy.HelpLine(names...)
}

// Command runs one SP command line over the sharded plane; the control
// port (proxy.ServeControl) and the daemons serve it. Every line costs
// one "proxy/command" event, emitted here so the event log does not
// depend on the shard count. Extension commands dispatch first (they
// exist at the plane, not on any shard); every other line runs the
// proxy's command table over the plane's typed control surface below,
// which is where each command's routing lives.
func (pl *Plane) Command(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	pl.bus.Emit("proxy", "command", fields[0], obs.F("args", len(fields)-1))
	if fn, ok := pl.ext[fields[0]]; ok {
		if spec, known := proxy.Lookup(fields[0]); known && !spec.ArityOK(len(fields)-1) {
			return spec.UsageError()
		}
		return fn(fields[1:])
	}
	return proxy.RunCommand(pl, fields)
}

// --- typed control surface ----------------------------------------------------
//
// The plane's proxy.Control: the command table runs over these methods,
// and the policy engine mutates filter state through them directly, so
// its rollback logic can branch on the typed sentinels
// (proxy.ErrNotLoaded, proxy.ErrAlreadyLoaded, proxy.ErrNoSuchStream,
// filter.ErrUnknownFilter). Registry, pool and service state is
// replicated: mutations broadcast under the quiesce barrier and queries
// answer from shard 0. Stream bindings live where their packets steer;
// per-stream views merge every shard's.

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

// DefineService defines a named composition on every shard.
func (pl *Plane) DefineService(name string, specs []string) error {
	return pl.mutateErr(func(_ int, p *proxy.Proxy) error { return p.DefineService(name, specs) })
}

// UndefineService removes a named composition from every shard.
func (pl *Plane) UndefineService(name string) error {
	return pl.mutateErr(func(_ int, p *proxy.Proxy) error { return p.UndefineService(name) })
}

// FilterListing renders the replicated filter pool from shard 0.
func (pl *Plane) FilterListing() (out string) {
	pl.exec.on(0, func(p *proxy.Proxy) { out = p.FilterListing() })
	return out
}

// ServiceListing renders the replicated service table from shard 0.
func (pl *Plane) ServiceListing() (out string) {
	pl.exec.on(0, func(p *proxy.Proxy) { out = p.ServiceListing() })
	return out
}

// Bus returns the bus SetObs attached (nil if none).
func (pl *Plane) Bus() *obs.Bus { return pl.bus }

// Metrics returns the registry SetObs attached (nil if none).
func (pl *Plane) Metrics() *obs.Registry { return pl.metrics }

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
	pl.exec.on(ShardOf(k, pl.n), func(p *proxy.Proxy) { err = fn(p) })
	pl.epoch.Add(1)
	return err
}

// ReportData gathers every shard's report listing and merges the
// per-filter keys (the renderer sorts and deduplicates them, so the
// shard partitioning is invisible).
func (pl *Plane) ReportData(name string) ([]string, map[string][]string, error) {
	type res struct {
		names []string
		per   map[string][]string
		err   error
	}
	rs := make([]res, pl.n)
	pl.exec.all(func(i int, p *proxy.Proxy) {
		rs[i].names, rs[i].per, rs[i].err = p.ReportData(name)
	})
	merged := make(map[string][]string)
	for _, r := range rs {
		if r.err != nil {
			return nil, nil, r.err
		}
		for f, keys := range r.per {
			merged[f] = append(merged[f], keys...)
		}
	}
	return rs[0].names, merged, nil
}

// Streams returns the merged per-stream accounting across shards,
// sorted by key.
func (pl *Plane) Streams() []proxy.StreamInfo {
	rs := make([][]proxy.StreamInfo, pl.n)
	pl.exec.all(func(i int, p *proxy.Proxy) { rs[i] = p.Streams() })
	var out []proxy.StreamInfo
	for _, r := range rs {
		out = append(out, r...)
	}
	filter.SortByKey(out, func(si proxy.StreamInfo) filter.Key { return si.Key })
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

// AppendFlowRecords appends every shard's flow records to dst.
// Steering is direction-normalized, so each flow lives whole on exactly
// one shard: concatenation is the complete merge, and the renderer's
// total order makes the output independent of the layout.
func (pl *Plane) AppendFlowRecords(dst []flowlog.Record) []flowlog.Record {
	rs := make([][]flowlog.Record, pl.n)
	pl.exec.all(func(i int, p *proxy.Proxy) { rs[i] = p.AppendFlowRecords(nil) })
	for _, r := range rs {
		dst = append(dst, r...)
	}
	return dst
}

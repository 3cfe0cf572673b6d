package dataplane

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/filter"
	"repro/internal/flowlog"
	"repro/internal/obs"
	"repro/internal/proxy"
)

// Plane is the concurrent data plane: N proxy shards behind a
// flow-steering dispatcher, each on its own goroutine (ringExec), plus
// the epoch/quiesce control plane that keeps the telnet grammar working
// unchanged. It holds steering, Command and the typed control surface,
// where all routing lives.
type Plane struct {
	shards []*proxy.Proxy
	n      int
	exec   *ringExec

	// epoch counts applied control-plane mutations. A reader that
	// observes epoch E is guaranteed every shard has applied mutations
	// 1..E: the counter is bumped only after the quiesce barrier.
	epoch atomic.Uint64
}

// NewConcurrent builds a plane over ringExec: one goroutine per shard,
// each fed whole batches through a bounded SPSC ring by Dispatch. This
// is the throughput path of the benchmark and the stress tests, not
// the deterministic experiments: see ringExec for what it does not run.
func NewConcurrent(cfg ConcurrentConfig) *Plane {
	e := newRingExec(cfg)
	pl := &Plane{n: len(e.workers), exec: e}
	for _, w := range e.workers {
		pl.shards = append(pl.shards, w.prox)
	}
	return pl
}

// N returns the shard count.
func (pl *Plane) N() int { return pl.n }

// Epoch returns the number of applied control-plane mutations.
func (pl *Plane) Epoch() uint64 { return pl.epoch.Load() }

// Shard exposes shard i's proxy. It belongs to the shard goroutine:
// outside a function that the plane runs there, read it only while the
// shard is quiescent (after Drain or a command, with nothing dispatched
// since) or once Close has returned.
func (pl *Plane) Shard(i int) *proxy.Proxy { return pl.shards[i] }

// --- packet path -------------------------------------------------------------

// Dispatch is the concurrent plane's packet entry: it steers raw into
// its shard's open batch arena. An idle shard takes the arena at once
// (a parked one is woken by this packet); a busy one finds it sealed
// at the batch size, or takes it partial when its ring runs dry. A full
// ring applies backpressure: the producer wakes the consumer and
// yields until a slot frees, so packets are delayed, never dropped.
func (pl *Plane) Dispatch(raw []byte) {
	pl.exec.workers[pl.steer(raw)].enqueue(raw)
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
// draining the rings. Afterwards nothing may be dispatched; the reads
// (StatsSnapshot, FlowStats, the registered metrics, the listings) and
// the commands run on the caller's goroutine, on the shards as Close
// left them. Close must not race another call.
func (pl *Plane) Close() { pl.exec.close() }

// --- control plane -----------------------------------------------------------

// mutate broadcasts fn under the quiesce barrier, then bumps the epoch.
func (pl *Plane) mutate(fn func(i int, p *proxy.Proxy)) {
	pl.exec.all(fn)
	pl.epoch.Add(1)
}

// FlushMatchCache recompiles every shard's registry match program. The
// broadcast rides the quiesce/epoch barrier like any other mutation,
// so each shard swaps its program between batches — no packet can
// observe a half-built program, and once the call returns every shard
// answers from a program at least as new as the current registry.
func (pl *Plane) FlushMatchCache() {
	pl.exec.all(func(_ int, p *proxy.Proxy) { p.FlushMatchCache() })
}

// StatsSnapshot returns the exact merged counters across shards, each
// read on its shard goroutine under the quiesce barrier (directly, once
// Close has returned).
func (pl *Plane) StatsSnapshot() proxy.Stats {
	ss := make([]proxy.Stats, pl.n)
	pl.exec.all(func(i int, p *proxy.Proxy) { ss[i] = p.Stats })
	var t proxy.Stats
	for _, s := range ss {
		t = t.Merge(s)
	}
	return t
}

// RegisterMetrics exposes the plane's counters: merged aggregates,
// per-shard breakdowns, the control epoch and the ring's handoff
// totals. Every shard counter is read on its shard goroutine, so a
// scrape quiesces the plane once per row.
func (pl *Plane) RegisterMetrics(r *obs.Registry, prefix string) {
	sum := func(f func(p *proxy.Proxy) int64) float64 {
		vs := make([]int64, pl.n)
		pl.exec.all(func(i int, p *proxy.Proxy) { vs[i] = f(p) })
		var t int64
		for _, v := range vs {
			t += v
		}
		return float64(t)
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
	r.Gauge(prefix+".streams", func() float64 { return sum((*proxy.Proxy).QueueCount) })
	r.Gauge(prefix+".registrations", func() float64 { return sum((*proxy.Proxy).RegistrationCount) })
	r.Gauge(prefix+".shards", func() float64 { return float64(pl.n) })
	r.Counter(prefix+".epoch", func() int64 { return int64(pl.Epoch()) })
	for i := range pl.shards {
		on := func(f func(p *proxy.Proxy) int64) func() int64 {
			return func() (v int64) {
				pl.exec.on(i, func(p *proxy.Proxy) { v = f(p) })
				return v
			}
		}
		streams := on((*proxy.Proxy).QueueCount)
		sp := fmt.Sprintf("%s.shard%d", prefix, i)
		r.Counter(sp+".intercepted", on(func(p *proxy.Proxy) int64 { return p.Stats.Intercepted }))
		r.Counter(sp+".filtered", on(func(p *proxy.Proxy) int64 { return p.Stats.Filtered }))
		r.Gauge(sp+".streams", func() float64 { return float64(streams()) })
	}
	r.Counter(prefix+".batches", func() int64 { return pl.exec.counters().batches })
	r.Counter(prefix+".wakeups", func() int64 { return pl.exec.counters().wakeups })
	r.Counter(prefix+".ring_stalls", func() int64 { return pl.exec.counters().stalls })
}

// Help is the SP help line: the plane has no extension commands.
func (pl *Plane) Help() string { return proxy.HelpLine() }

// Command runs one SP command line over the plane: the proxy's command
// table over the plane's typed control surface below, which is where
// each command's routing lives.
func (pl *Plane) Command(line string) string {
	return proxy.RunCommand(pl, strings.Fields(line))
}

// --- typed control surface ----------------------------------------------------
//
// The plane's proxy.Control: the command table runs over these methods,
// and they return the proxy's typed sentinels (proxy.ErrNotLoaded,
// proxy.ErrAlreadyLoaded, proxy.ErrNoSuchStream,
// filter.ErrUnknownFilter) unchanged. Registry, pool and service state is
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

// Bus returns nil: the shards' private schedulers cannot feed a bus.
func (pl *Plane) Bus() *obs.Bus { return nil }

// Metrics returns nil: the plane's counters are registered with
// RegisterMetrics, not served by its stats command.
func (pl *Plane) Metrics() *obs.Registry { return nil }

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

// FlowStats returns the merged flow-log counters across shards, each
// read on its owning goroutine after closing its idle flows. No shard
// scheduler advances (see ringExec), so on this plane no flow ever
// goes idle and the read ages nothing. Every field sums, the Active
// gauge too, since a flow lives whole on one shard.
func (pl *Plane) FlowStats() flowlog.Stats {
	ts := make([]flowlog.Stats, pl.n)
	pl.exec.all(func(i int, p *proxy.Proxy) { ts[i] = p.FlowStats() })
	var t flowlog.Stats
	for _, s := range ts {
		t.Active += s.Active
		t.Opened += s.Opened
		t.Closed += s.Closed
		t.Evicted += s.Evicted
		t.IdleClosed += s.IdleClosed
		t.Pkts += s.Pkts
		t.DataPkts += s.DataPkts
		t.Retrans += s.Retrans
		t.ZeroWin += s.ZeroWin
		t.RTTSamples += s.RTTSamples
		t.RTTSumMicros += s.RTTSumMicros
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

package dataplane

import (
	"repro/internal/obs"
	"repro/internal/proxy"
)

// executor is the one decision the plane's two constructors differ in:
// how a control operation reaches a shard's proxy without meeting a
// packet half-way. Plane routes over it and never asks which of the
// two it holds — inlineExec (NewInline) or ringExec (NewConcurrent);
// the packet path (Hook, Dispatch) does not go through it.
type executor interface {
	// on runs fn on shard i's proxy while no packet of that shard is
	// mid-interception, and returns when fn has.
	on(i int, fn func(p *proxy.Proxy))
	// all is on for every shard and returns after the last: mutation
	// broadcast and quiesce barrier in one. fn may run concurrently
	// across shards, so it must not share unsynchronized state.
	all(fn func(i int, p *proxy.Proxy))

	drain() // wait until every accepted packet is delivered
	close() // drain and stop; idempotent

	setObs(b *obs.Bus, r *obs.Registry)
	registerMetrics(pl *Plane, r *obs.Registry, prefix string)
	counters() ringCounters
}

// ringCounters are the handoff totals across shards.
type ringCounters struct{ stalls, batches, wakeups int64 }

// inlineExec runs everything on the caller's goroutine, the only one
// that intercepts (the simulator's): a direct call in shard order can
// never meet a packet and there is nothing to drain.
type inlineExec struct{ shards []*proxy.Proxy }

func (e inlineExec) on(i int, fn func(p *proxy.Proxy)) { fn(e.shards[i]) }

func (e inlineExec) all(fn func(i int, p *proxy.Proxy)) {
	for i, s := range e.shards {
		fn(i, s)
	}
}

func (inlineExec) drain() {}
func (inlineExec) close() {}

func (e inlineExec) setObs(b *obs.Bus, r *obs.Registry) {
	for _, s := range e.shards {
		s.SetObs(b, r)
	}
}

// registerMetrics delegates to the proxy when there is one shard, so
// the "stats" table is byte-identical to the unsharded deployment.
func (e inlineExec) registerMetrics(pl *Plane, r *obs.Registry, prefix string) {
	if len(e.shards) == 1 {
		e.shards[0].RegisterMetrics(r, prefix)
		return
	}
	pl.registerMerged(r, prefix)
}

func (inlineExec) counters() ringCounters { return ringCounters{} }

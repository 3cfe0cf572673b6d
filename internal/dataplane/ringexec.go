package dataplane

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/filter"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// Sink receives each shard's interception output on a concurrent
// plane, one call per drained batch: out holds the surviving datagrams
// of every packet in the batch, in interception order. The slice and
// every datagram in it are valid only during the call, like a netsim
// ProtoHandler's raw: once the sink returns, the shard gives each
// datagram its proxy marshalled back to its node's free list, to be
// rewritten by a later batch. So the sink consumes (forwards, counts,
// checks) synchronously and copies whatever it keeps. A packet passed
// through untouched is the caller's own buffer and stays the caller's.
type Sink func(shard int, out [][]byte)

// DefaultBatchSize is the most packets a ring slot holds when BatchSize
// is zero. A shard that falls behind its producer finds full arenas
// waiting and pays the per-slot handoff (atomics, empty-transition
// wakeup, consumer park/unpark) once per 64 packets, which is what lets
// the concurrent plane scale with shards instead of drowning in
// per-packet signaling; a shard that keeps up takes each arena as it
// stands, so the size bounds a batch without delaying a packet.
const DefaultBatchSize = 64

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
	// BatchSize caps the packets per ring slot (DefaultBatchSize when
	// 0): the producer seals an arena when it fills. A partial arena
	// needs no timer — the shard's worker takes it as soon as its ring
	// is empty, and a parked worker is woken by the next packet. 1
	// degenerates to the per-packet handoff of the pre-batching plane
	// and exists for comparison benchmarks and tests.
	BatchSize int
	// Sink receives interception output; nil discards it.
	Sink Sink
}

// ringExec runs the plane's shards: one goroutine per shard, each
// fed batches through a bounded SPSC ring. A control operation
// seals the shard's open arena, posts a ctrlMsg and waits for the
// shard goroutine to run it at its next batch boundary, so it never
// lands mid-batch and waits out at most one batch of packets.
//
// What it does not run: each shard owns a private scheduler nobody
// advances, so filter timers never fire (FIN teardown, mwin's roll,
// snoop's RTO, the flow log's idle sweep), and no shard has an event
// bus, because a bus is bound to one scheduler.
type ringExec struct {
	workers []*worker
	closed  bool
}

func newRingExec(cfg ConcurrentConfig) *ringExec {
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
	e := &ringExec{}
	for i := 0; i < n; i++ {
		s := sim.NewScheduler(cfg.Seed + int64(i))
		net := netsim.New(s)
		node := net.AddNode(fmt.Sprintf("shard%d", i))
		r := newRing(size)
		e.workers = append(e.workers, &worker{
			idx:      i,
			prox:     proxy.NewDetached(node, cfg.Catalog),
			ring:     r,
			free:     newRing(len(r.slots) + 2), // every live arena fits: ring slots + open + draining
			sink:     cfg.Sink,
			batchCap: batch,
			open:     make([][]byte, 0, batch),
			ctrl:     make(chan ctrlMsg, 4),
			wake:     make(chan struct{}, 1),
			stop:     make(chan struct{}),
			done:     make(chan struct{}),
		})
	}
	for _, w := range e.workers {
		go w.run()
	}
	return e
}

// on runs fn on shard i's proxy while no packet of that shard is
// mid-interception, and returns when fn has. Once close has returned
// the shard goroutines are gone, and fn runs on the caller's.
func (e *ringExec) on(i int, fn func(p *proxy.Proxy)) {
	if e.closed {
		fn(e.workers[i].prox)
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	e.workers[i].flush()
	e.workers[i].send(ctrlMsg{fn: fn, done: &wg})
	wg.Wait()
}

// all is on for every shard and returns after the last: mutation
// broadcast and quiesce barrier in one. fn may run concurrently
// across shards, so it must not share unsynchronized state.
func (e *ringExec) all(fn func(i int, p *proxy.Proxy)) {
	if e.closed {
		for i, w := range e.workers {
			fn(i, w.prox)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	for i, w := range e.workers {
		i := i
		w.flush() // quiesce seals partial batches: no packet waits out a mutation in an open arena
		w.send(ctrlMsg{fn: func(p *proxy.Proxy) { fn(i, p) }, done: &wg})
	}
	wg.Wait()
}

// drain waits until every accepted packet is delivered.
func (e *ringExec) drain() {
	for _, w := range e.workers {
		w.flush()
		for w.ring.len() > 0 {
			w.wakeup()
			runtime.Gosched()
		}
	}
	e.all(func(int, *proxy.Proxy) {}) // quiesce: in-flight batch completes
}

// close drains and stops the workers; idempotent.
func (e *ringExec) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, w := range e.workers {
		w.flush()
		close(w.stop)
		w.wakeup()
	}
	for _, w := range e.workers {
		<-w.done
	}
}

// ringCounters are the handoff totals across shards.
type ringCounters struct{ stalls, batches, wakeups int64 }

func (e *ringExec) counters() ringCounters {
	var c ringCounters
	for _, w := range e.workers {
		c.stalls += w.stalls.Load()
		c.batches += w.batches.Load()
		c.wakeups += w.wakes.Load()
	}
	return c
}

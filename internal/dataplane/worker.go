package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proxy"
)

// ctrlMsg is one control-plane operation executed by the shard
// goroutine between batches. done, when non-nil, is signalled after fn
// returns, so a broadcast that waits on every shard's done is a full
// quiesce point; fire-and-forget messages leave it nil.
type ctrlMsg struct {
	fn   func(p *proxy.Proxy)
	done *sync.WaitGroup
}

// pollSpin is how long a worker that ran out of work keeps looking,
// yielding between looks, before it parks: about one park→wake round
// trip. A parked goroutine woken by a producer that keeps running
// becomes runnable on the producer's P and waits there until an idle P
// steals it, ~58 µs at the median on a 2-CPU host; a worker that parked
// at once would add that to every packet of a trickle.
const pollSpin = 50 * time.Microsecond

// worker is one concurrent shard: a goroutine draining batches from an
// SPSC ring into its private proxy instance. The producer side — the
// steering stage — accumulates packets into the shard's open arena and
// seals it onto the ring when it fills, when it finds the worker
// parked, or when a quiesce, Drain or Close forces it out. A worker
// whose ring is empty takes the open arena itself, so a packet never
// waits for a batch to fill while its shard has nothing else to do.
// Control messages are checked at batch boundaries only, so a shard's
// proxy state is touched by exactly one goroutine at a time and a
// control mutation never lands mid-batch.
type worker struct {
	idx      int
	prox     *proxy.Proxy
	ring     *ring // sealed batches, dispatcher → shard
	free     *ring // drained arenas, shard → dispatcher
	sink     Sink
	batchCap int

	// The producer's fields sit on cache lines of their own: it writes
	// mu and open per packet and reads parked per packet, while the
	// worker writes out per packet.
	_ [64]byte
	// mu serializes the producer side: the open arena and ring pushes.
	// Dispatchers, quiesce-time flushes and the idle worker taking the
	// open arena all land here, so the ring keeps a single logical
	// producer even though several goroutines may seal batches. The
	// worker only ever TryLocks it: a producer spinning
	// on a full ring holds mu until the worker drains a slot.
	mu   sync.Mutex
	open [][]byte // accumulating batch; nil refs after recycle
	// parked is set by the worker just before it blocks and cleared by
	// the first producer that sees it, which seals its packet and so
	// wakes the worker: one wakeup per park.
	parked atomic.Bool
	_      [64]byte

	// out accumulates the whole batch's interception output for one
	// sink call per batch, and dead those of its datagrams that are not
	// their packet's own raw, which go back to the shard's node once
	// the sink has returned. Both are reused across batches; refs
	// cleared after delivery.
	out, dead [][]byte

	ctrl chan ctrlMsg
	wake chan struct{} // buffered(1): at-most-one pending wakeup
	stop chan struct{}
	done chan struct{}

	// stalls counts producer spins on a full ring (backpressure).
	stalls atomic.Int64

	// arenaAllocs counts fresh arena allocations. Drained arenas
	// recycle through the free ring, which holds every arena that can
	// be live at once, so this never exceeds the ring's slots plus two.
	arenaAllocs atomic.Int64

	// wakes counts wakeup signals actually sent — at most one per park
	// from the packet path, plus control messages.
	wakes atomic.Int64

	// batches counts batches fully drained.
	batches atomic.Int64
}

// wakeup nudges a possibly-parked worker; a full wake buffer means a
// wakeup is already pending, which is just as good.
func (w *worker) wakeup() {
	select {
	case w.wake <- struct{}{}:
		w.wakes.Add(1)
	default:
	}
}

// send enqueues a control message and wakes the worker. The wakeup
// follows the message, so a parked worker that waits only on wake
// still finds it.
func (w *worker) send(m ctrlMsg) {
	w.ctrl <- m
	w.wakeup()
}

// enqueue appends raw to the shard's open arena, sealing it onto the
// ring when it reaches the batch size or when the worker is parked.
// The parked check is a plain load; only the producer that finds the
// flag set pays a store.
func (w *worker) enqueue(raw []byte) {
	w.mu.Lock()
	w.open = append(w.open, raw)
	parked := w.parked.Load()
	if parked {
		w.parked.Store(false)
	}
	if parked || len(w.open) >= w.batchCap {
		w.flushLocked()
	}
	w.mu.Unlock()
}

// flush seals the open arena onto the ring even if partially filled —
// the quiesce, Drain and Close path. An empty arena is left alone.
func (w *worker) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// flushLocked pushes the open arena as one ring slot and replaces it.
// A full ring applies backpressure: the producer wakes the consumer and
// yields until a slot frees, so packets are delayed, never dropped.
// The push that finds the ring empty wakes the worker; a parked worker
// has always drained its ring, so sealing for it always wakes it.
// Caller holds mu.
func (w *worker) flushLocked() {
	if len(w.open) == 0 {
		return
	}
	for {
		ok, wasEmpty := w.ring.push(w.open)
		if ok {
			if wasEmpty {
				w.wakeup()
			}
			break
		}
		w.stalls.Add(1)
		w.wakeup()
		runtime.Gosched()
	}
	w.nextOpen()
}

// nextOpen replaces the sealed open arena with a recycled one, or a
// fresh one while the free ring is empty. Caller holds mu.
func (w *worker) nextOpen() {
	if a, ok := w.free.pop(); ok {
		w.open = a
	} else {
		w.arenaAllocs.Add(1)
		w.open = make([][]byte, 0, w.batchCap)
	}
}

// takeOpen is the worker sealing its own batch: when the ring is empty
// it takes the open arena, however few packets it holds, straight into
// its hands. It only TryLocks — Lock could wait on a producer spinning
// on a full ring, which only this worker can drain — and re-checks the
// ring under mu, so a batch sealed since the worker's last pop is
// delivered first. nil when there is nothing to take or mu is busy.
func (w *worker) takeOpen() [][]byte {
	if !w.mu.TryLock() {
		return nil
	}
	var b [][]byte
	if len(w.open) > 0 && w.ring.len() == 0 {
		b = w.open
		w.nextOpen()
	}
	w.mu.Unlock()
	return b
}

// run is the shard loop: work while there is any, poll for one
// wake latency when there is none, then park. It ends when the plane
// stops.
func (w *worker) run() {
	defer close(w.done)
	for w.work() || w.poll() || w.park() {
	}
}

// work does one unit of it and reports whether there was any. Control
// messages take priority over batches (a mutation broadcast quiesces
// within one batch even under sustained traffic, and never lands
// mid-batch); an empty ring sends the worker to the open arena.
func (w *worker) work() bool {
	select {
	case m := <-w.ctrl:
		w.runCtrl(m)
		return true
	default:
	}
	b, ok := w.ring.pop()
	if !ok {
		b = w.takeOpen()
	}
	if b == nil {
		return false
	}
	w.deliverBatch(b)
	return true
}

// poll looks for work, yielding between looks, until some turns up or
// pollSpin has passed.
func (w *worker) poll() bool {
	for start := time.Now(); time.Since(start) < pollSpin; {
		runtime.Gosched()
		if w.work() {
			return true
		}
	}
	return false
}

// park blocks until a wakeup. It publishes parked first and then
// re-checks the ring and the open arena under mu: a producer that
// appended before the check left its packet where the check finds it,
// and one that appends after sees the flag and seals, which wakes the
// worker. A busy mu means a producer is mid-enqueue, so the worker
// polls again instead of parking. On stop the ring is drained before
// park reports false, so no dispatched packet is silently lost.
func (w *worker) park() bool {
	w.parked.Store(true)
	defer w.parked.Store(false)
	if !w.mu.TryLock() {
		return true
	}
	idle := len(w.open) == 0 && w.ring.len() == 0
	w.mu.Unlock()
	if !idle {
		return true
	}
	select {
	case <-w.wake:
		return true
	case <-w.stop:
		for {
			b, ok := w.ring.pop()
			if !ok {
				return false
			}
			w.deliverBatch(b)
		}
	}
}

func (w *worker) runCtrl(m ctrlMsg) {
	m.fn(w.prox)
	if m.done != nil {
		m.done.Done()
	}
}

// deliverBatch intercepts every packet of the batch, delivers the
// accumulated output in a single sink call, releases the datagrams the
// proxy marshalled, and recycles the arena. A packet's own raw stays
// the caller's: it is told apart by pointer, as netsim's receive does.
func (w *worker) deliverBatch(b [][]byte) {
	for _, raw := range b {
		n := len(w.out)
		w.out = w.prox.InterceptAppend(raw, nil, w.out)
		for _, d := range w.out[n:] {
			if len(d) > 0 && (len(raw) == 0 || &d[0] != &raw[0]) {
				w.dead = append(w.dead, d)
			}
		}
	}
	if w.sink != nil && len(w.out) > 0 {
		w.sink(w.idx, w.out)
	}
	for i := range w.out {
		w.out[i] = nil // drop packet refs; keep the arena
	}
	w.out = w.out[:0]
	node := w.prox.Node()
	for i, d := range w.dead {
		node.Release(d)
		w.dead[i] = nil
	}
	w.dead = w.dead[:0]
	for i := range b {
		b[i] = nil
	}
	w.batches.Add(1)
	w.free.push(b[:0]) // the free ring holds every live arena, so this never drops one
}

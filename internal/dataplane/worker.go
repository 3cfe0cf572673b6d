package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/proxy"
)

// ctrlMsg is one control-plane operation executed by the shard
// goroutine between batches. done, when non-nil, is signalled after fn
// returns, so a broadcast that waits on every shard's done is a full
// quiesce point; fire-and-forget messages (fault injection) leave it
// nil.
type ctrlMsg struct {
	fn   func(p *proxy.Proxy)
	done *sync.WaitGroup
}

// worker is one concurrent shard: a goroutine draining batches from an
// SPSC ring into its private proxy instance. The producer side — the
// steering stage — accumulates packets into the shard's open arena and
// seals it onto the ring when it fills (or when the flush timer or a
// quiesce forces a partial batch out). Control messages are checked at
// batch boundaries only, so a shard's proxy state is touched by
// exactly one goroutine at a time and a control mutation never lands
// mid-batch.
type worker struct {
	idx      int
	prox     *proxy.Proxy
	ring     *ring // sealed batches, dispatcher → shard
	free     *ring // drained arenas, shard → dispatcher
	sink     Sink
	batchCap int

	// mu serializes the producer side: the open arena and ring pushes.
	// Dispatchers, the flush timer, and quiesce-time flushes all land
	// here, so the ring keeps a single logical producer even though
	// several goroutines may seal batches.
	mu   sync.Mutex
	open [][]byte // accumulating batch; nil refs after recycle

	// out accumulates the whole batch's interception output for one
	// sink call per batch. Reused across batches; refs cleared after
	// delivery.
	out [][]byte

	ctrl chan ctrlMsg
	wake chan struct{} // buffered(1): at-most-one pending wakeup
	stop chan struct{}
	done chan struct{}

	// stalls counts producer spins on a full ring (backpressure).
	stalls atomic.Int64

	// arenaAllocs counts fresh arena allocations — ramp-up only; in
	// steady state drained arenas recycle through the free ring and
	// this stays flat.
	arenaAllocs atomic.Int64

	// wakes counts wakeup signals actually sent — at most one per
	// empty→non-empty ring transition, i.e. at most one per batch.
	wakes atomic.Int64

	// batches counts batches fully drained.
	batches atomic.Int64
	// progress advances on every unit of forward motion the shard
	// makes — batch pickup, each packet within a batch, each control
	// message — so the watchdog can tell a shard grinding through a
	// large in-flight batch from a wedged one.
	progress atomic.Int64
	// stalled is the watchdog's verdict: backlog with no progress on
	// stallLooks consecutive looks. Cleared when progress resumes.
	stalled atomic.Bool
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

// send enqueues a control message and wakes the worker.
func (w *worker) send(m ctrlMsg) {
	w.ctrl <- m
	w.wakeup()
}

// enqueue appends raw to the shard's open arena, sealing it onto the
// ring when it reaches the batch size.
func (w *worker) enqueue(raw []byte) {
	w.mu.Lock()
	w.open = append(w.open, raw)
	if len(w.open) >= w.batchCap {
		w.flushLocked()
	}
	w.mu.Unlock()
}

// flush seals the open arena onto the ring even if partially filled —
// the timer and quiesce path ("a partial batch never waits forever").
// An empty arena is left alone.
func (w *worker) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// flushLocked pushes the open arena as one ring slot and replaces it
// with a recycled (or, during ramp-up, fresh) arena. A full ring
// applies backpressure: the producer wakes the consumer and yields
// until a slot frees, so packets are delayed, never dropped. Caller
// holds mu.
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
	if a, ok := w.free.pop(); ok {
		w.open = a
	} else {
		w.arenaAllocs.Add(1)
		w.open = make([][]byte, 0, w.batchCap)
	}
}

// run is the shard loop: control messages take priority over batches
// (a mutation broadcast quiesces within one batch even under sustained
// traffic, and never lands mid-batch), batches drain the ring, and an
// empty ring parks on the wake channel. On stop the ring is drained
// before exiting so no dispatched packet is silently lost.
func (w *worker) run() {
	defer close(w.done)
	for {
		select {
		case m := <-w.ctrl:
			w.runCtrl(m)
			continue
		default:
		}
		if b, ok := w.ring.pop(); ok {
			w.deliverBatch(b)
			continue
		}
		select {
		case m := <-w.ctrl:
			w.runCtrl(m)
		case <-w.wake:
		case <-w.stop:
			for {
				b, ok := w.ring.pop()
				if !ok {
					return
				}
				w.deliverBatch(b)
			}
		}
	}
}

func (w *worker) runCtrl(m ctrlMsg) {
	w.progress.Add(1)
	m.fn(w.prox)
	if m.done != nil {
		m.done.Done()
	}
}

// deliverBatch intercepts every packet of the batch, delivers the
// accumulated output in a single sink call, and recycles the arena.
// progress advances per packet, so the watchdog sees a shard grinding
// a large batch as live, not stalled.
func (w *worker) deliverBatch(b [][]byte) {
	w.progress.Add(1)
	for _, raw := range b {
		w.out = w.prox.InterceptAppend(raw, nil, w.out)
		w.progress.Add(1)
	}
	if w.sink != nil && len(w.out) > 0 {
		w.sink(w.idx, w.out)
	}
	for i := range w.out {
		w.out[i] = nil // drop packet refs; keep the arena
	}
	w.out = w.out[:0]
	for i := range b {
		b[i] = nil
	}
	w.batches.Add(1)
	w.free.push(b[:0]) // a full free ring drops the arena to the GC
}

package dataplane

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/proxy"
	"repro/internal/tcp"
)

// buf packs i into a fresh 4-byte buffer.
func buf(i int) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(i))
	return b
}

// bval unpacks a buffer written by buf.
func bval(b []byte) int { return int(binary.BigEndian.Uint32(b)) }

// mkBatch builds one batch of n packets numbered from start.
func mkBatch(start, n int) [][]byte {
	b := make([][]byte, n)
	for i := range b {
		b[i] = buf(start + i)
	}
	return b
}

// TestRingOrderAndWrap cycles batches through several wraparounds of
// the slot boundary with a partially-full ring: every batch comes out
// intact, in order, including the batches that straddle the index wrap
// of the free-running head/tail counters.
func TestRingOrderAndWrap(t *testing.T) {
	r := newRing(8)
	if len(r.slots) != 8 {
		t.Fatalf("capacity = %d, want 8", len(r.slots))
	}
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 5; i++ {
			// Varying batch sizes so slot contents never line up with
			// slot indices.
			n := 1 + (round+i)%4
			if ok, _ := r.push(mkBatch(round*1000+i*10, n)); !ok {
				t.Fatalf("push failed at depth %d", r.len())
			}
		}
		want := 0
		for i := 0; i < 5; i++ {
			b, ok := r.pop()
			if !ok {
				t.Fatal("pop on non-empty ring failed")
			}
			wantN := 1 + (round+i)%4
			if len(b) != wantN {
				t.Fatalf("round %d batch %d: %d packets, want %d", round, i, len(b), wantN)
			}
			for j, raw := range b {
				if got := bval(raw); got != round*1000+i*10+j {
					t.Fatalf("round %d batch %d pkt %d: got %d, want %d",
						round, i, j, got, round*1000+i*10+j)
				}
			}
			want += wantN
		}
		next += want
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop on empty ring succeeded")
	}
}

func TestRingFull(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		if ok, _ := r.push(mkBatch(i, 2)); !ok {
			t.Fatalf("push %d on non-full ring failed", i)
		}
	}
	if ok, _ := r.push(mkBatch(9, 2)); ok {
		t.Fatal("push on full ring succeeded")
	}
	if _, ok := r.pop(); !ok {
		t.Fatal("pop failed")
	}
	if ok, _ := r.push(mkBatch(9, 2)); !ok {
		t.Fatal("push after pop failed")
	}
}

// TestRingWasEmpty pins the wakeup contract at the ring level: only
// the push that transitions empty→non-empty reports wasEmpty, i.e. at
// most one wakeup per batch and none while the consumer has work.
func TestRingWasEmpty(t *testing.T) {
	r := newRing(4)
	if _, wasEmpty := r.push(mkBatch(0, 3)); !wasEmpty {
		t.Fatal("first push must observe empty")
	}
	if _, wasEmpty := r.push(mkBatch(3, 3)); wasEmpty {
		t.Fatal("second push must not observe empty")
	}
	r.pop()
	r.pop()
	if _, wasEmpty := r.push(mkBatch(6, 3)); !wasEmpty {
		t.Fatal("push after drain must observe empty")
	}
}

// TestRingSPSC hammers the batched ring cross-goroutine under the race
// detector: every packet of every batch arrives exactly once, in
// order. Both sides yield when they can't make progress so the test
// passes promptly on a single-core machine.
func TestRingSPSC(t *testing.T) {
	const batches = 10000
	const per = 5
	r := newRing(64)
	done := make(chan int)
	go func() {
		next := 0
		for next < batches*per {
			b, ok := r.pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			for _, raw := range b {
				if got := bval(raw); got != next {
					t.Errorf("consumer: got %d, want %d", got, next)
					done <- next
					return
				}
				next++
			}
		}
		done <- next
	}()
	for i := 0; i < batches; i++ {
		b := mkBatch(i*per, per)
		for {
			if ok, _ := r.push(b); ok {
				break
			}
			runtime.Gosched()
		}
	}
	if got := <-done; got != batches*per {
		t.Fatalf("consumer stopped at %d of %d", got, batches*per)
	}
}

// concurrentPlane builds a small concurrent plane for the in-package
// batch tests, delivering to sink (nil discards).
func concurrentPlane(t *testing.T, shards, batch int, sink Sink) *Plane {
	t.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := NewConcurrent(ConcurrentConfig{
		Shards: shards, Catalog: cat, Seed: 3, RingSize: 64,
		BatchSize: batch, Sink: sink,
	})
	t.Cleanup(pl.Close)
	return pl
}

// wedge holds w's goroutine in a control message until release is
// called, and returns once the worker is inside it. A wedged worker is
// neither parked nor polling, so nothing but the producer and quiesce
// seals touches its open arena. The send's wake token, if still
// pending, is consumed so that wake counts start clean. A test that
// fails while wedged is released at cleanup, before the plane closes.
func wedge(t *testing.T, w *worker) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(release)
	w.send(ctrlMsg{fn: func(*proxy.Proxy) { <-ch }})
	waitFor(t, "the worker to enter the wedge", func() bool { return len(w.ctrl) == 0 })
	select {
	case <-w.wake:
	default:
	}
	return release
}

// waitFor polls cond until it holds, failing the test after 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// openLen reads w's open arena length under the producer lock.
func openLen(w *worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.open)
}

// TestIdleShardDeliversWithoutDrain: with fewer packets than a batch
// and no Drain, an idle shard must deliver every packet on its own —
// the worker takes its open arena while polling, and a parked worker is
// woken by the packet. Each packet arrives at a parked worker, and
// waking it costs at most one wakeup.
func TestIdleShardDeliversWithoutDrain(t *testing.T) {
	const pkts = 5
	var got atomic.Int64
	pl := concurrentPlane(t, 1, 64, func(_ int, out [][]byte) { got.Add(int64(len(out))) })
	w := pl.exec.workers[0]
	base := w.wakes.Load()
	for i := 0; i < pkts; i++ {
		waitFor(t, "the worker to park", w.parked.Load)
		time.Sleep(time.Millisecond) // let it block, not just publish
		pl.Dispatch(mkTestSeg(t, 1000, uint32(1+i)))
		waitFor(t, fmt.Sprintf("packet %d to reach the sink", i+1), func() bool { return got.Load() == int64(i+1) })
	}
	if n := w.wakes.Load() - base; n < 1 || n > pkts {
		t.Fatalf("%d packets to a parked shard sent %d wakeups, want 1..%d (at most one per park)", pkts, n, pkts)
	}
}

// TestIdleSealKeepsOrderAndParkRechecks drives the worker's idle side
// by hand while the real worker is wedged, at the one moment the
// scheduler rarely offers: a batch sealed on the ring with more packets
// behind it in the open arena. takeOpen must not take the open arena
// past the sealed batch, and park must see the backlog and return
// instead of blocking.
func TestIdleSealKeepsOrderAndParkRechecks(t *testing.T) {
	const batch = 4
	pl := concurrentPlane(t, 1, batch, nil)
	w := pl.exec.workers[0]
	release := wedge(t, w)
	for i := 0; i < batch+2; i++ {
		pl.Dispatch(mkTestSeg(t, 1000, uint32(1+i)))
	}
	if b := w.takeOpen(); b != nil {
		t.Fatalf("took a %d-packet open arena past a sealed batch", len(b))
	}
	select {
	case <-w.wake: // the seal's wakeup: park must find the backlog without it
	default:
	}
	parked := make(chan bool, 1)
	go func() { parked <- w.park() }()
	select {
	case <-parked:
	case <-time.After(time.Second):
		t.Fatal("park blocked with a sealed batch and an open arena waiting")
	}
	release()
	pl.Drain()
	if got := w.prox.Stats.Intercepted; got != batch+2 {
		t.Fatalf("processed %d packets, want %d", got, batch+2)
	}
}

// TestPartialBatchFlushOnQuiesce: a control broadcast seals every open
// arena before it queues the mutation. The shards are wedged, so no
// worker can take the arenas itself; the seal has to be the command's.
func TestPartialBatchFlushOnQuiesce(t *testing.T) {
	var pkts atomic.Int64 // two shards deliver concurrently
	pl := concurrentPlane(t, 2, 64, func(_ int, out [][]byte) {
		pkts.Add(int64(len(out)))
	})
	var releases []func()
	for _, w := range pl.exec.workers {
		releases = append(releases, wedge(t, w))
	}
	for i := 0; i < 6; i++ {
		pl.Dispatch(mkTestSeg(t, uint16(1000+i), 1))
	}
	open := func() (n int) {
		for _, w := range pl.exec.workers {
			n += openLen(w)
		}
		return n
	}
	if n := open(); n != 6 {
		t.Fatalf("%d packets in the open arenas of wedged shards, want 6", n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pl.Command("load tcp")
	}()
	waitFor(t, "the command to seal the open arenas", func() bool { return open() == 0 })
	for _, release := range releases {
		release()
	}
	<-done
	pl.Drain()
	if got := pkts.Load(); got != 6 {
		t.Fatalf("delivered %d packets after quiesce, want 6", got)
	}
	if got := pl.StatsSnapshot().Intercepted; got != 6 {
		t.Fatalf("intercepted %d, want 6", got)
	}
}

// TestPartialBatchFlushOnDrain: same, via Drain alone.
func TestPartialBatchFlushOnDrain(t *testing.T) {
	var pkts int
	pl := concurrentPlane(t, 1, 64, func(_ int, out [][]byte) { pkts += len(out) })
	pl.Dispatch(mkTestSeg(t, 1000, 1))
	pl.Drain()
	if pkts != 1 {
		t.Fatalf("delivered %d packets after Drain, want 1", pkts)
	}
}

// TestWakeupOncePerBatch pins the amortization the batching exists
// for: while a shard is busy (here wedged, so the ring only fills),
// dispatching several full batches sends exactly one wakeup — the
// empty→non-empty transition of the first batch — not one per packet
// or per batch, and the batches stay full.
func TestWakeupOncePerBatch(t *testing.T) {
	const batch = 8
	pl := concurrentPlane(t, 1, batch, nil)
	w := pl.exec.workers[0]
	release := wedge(t, w)
	base := w.wakes.Load()
	for i := 0; i < 3*batch; i++ {
		pl.Dispatch(mkTestSeg(t, 1000, uint32(1+i))) // one flow → one shard
	}
	if got := w.ring.len(); got != 3 {
		t.Fatalf("ring holds %d batches, want 3", got)
	}
	if got := w.wakes.Load() - base; got != 1 {
		t.Fatalf("dispatching 3 full batches sent %d wakeups, want exactly 1", got)
	}
	release()
	pl.Drain()
	if got := w.prox.Stats.Intercepted; got != 3*batch {
		t.Fatalf("processed %d packets, want %d", got, 3*batch)
	}
	if got := w.batches.Load(); got != 3 {
		t.Fatalf("drained %d batches, want 3", got)
	}
}

// TestArenaRecycling: the producer reuses arenas the worker has drained
// instead of allocating one per batch. Where batch boundaries fall is a
// matter of timing now that an idle worker takes partial arenas, so the
// test asserts the bound every schedule obeys: fresh arenas never
// exceed what can be live at once — the ring's slots, the open arena
// and the one draining — over a run of far more batches than that.
func TestArenaRecycling(t *testing.T) {
	const batch, ringSize = 4, 64 // concurrentPlane's RingSize
	pl := concurrentPlane(t, 1, batch, nil)
	w := pl.exec.workers[0]
	raws := make([][]byte, 3*batch)
	for i := range raws {
		raws[i] = mkTestSeg(t, 1000, uint32(1+i))
	}
	for round := 0; round < 2000; round++ {
		for _, raw := range raws[:1+round%len(raws)] {
			pl.Dispatch(raw)
		}
		if round%8 == 0 {
			pl.Drain()
		}
	}
	pl.Drain()
	if got, want := w.batches.Load(), int64(10*(ringSize+2)); got < want {
		t.Fatalf("drained %d batches, want at least %d for the bound to mean anything", got, want)
	}
	if w.free.len() == 0 {
		t.Fatal("no arenas recycled onto the free ring")
	}
	if got := w.arenaAllocs.Load(); got > ringSize+2 {
		t.Fatalf("allocated %d fresh arenas over %d batches, want at most %d (recycled)", got, w.batches.Load(), ringSize+2)
	}
}

// mkTestSeg is a minimal valid TCP/IP datagram builder for in-package
// tests (the external-package tests have their own in plane_test.go).
func mkTestSeg(tb testing.TB, srcPort uint16, seq uint32) []byte {
	tb.Helper()
	src := ip.MustParseAddr("11.11.10.99")
	dst := ip.MustParseAddr("11.11.10.10")
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

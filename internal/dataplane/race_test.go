package dataplane_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/obs"
)

// TestControlVsTrafficRace hammers control-plane mutations, merged
// queries, and metric scrapes against live traffic on a concurrent
// plane. It asserts nothing subtle — the race detector is the oracle:
// any shard state touched outside its goroutine, or any quiesce bug
// letting a mutation overlap a packet, fails the -race build.
func TestControlVsTrafficRace(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 7, RingSize: 128,
	})
	defer pl.Close()
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg, "plane")

	const pkts = 8000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pkts; i++ {
			port := uint16(1000 + i%64)
			pl.Dispatch(mkSeg(t, port, uint32(1+i), []byte("race traffic payload")))
		}
	}()

	pl.Command("load tcp")
	pl.Command("load rdrop")
	for i := 0; ; i++ {
		select {
		case <-done:
			pl.Drain()
			snap := pl.StatsSnapshot()
			if snap.Intercepted != pkts {
				t.Fatalf("intercepted %d packets, dispatched %d", snap.Intercepted, pkts)
			}
			return
		default:
		}
		switch i % 6 {
		case 0:
			pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 10")
		case 1:
			exact := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", 1000+i%64)
			pl.Command("add rdrop " + exact + " 50")
		case 2:
			if out := pl.Command("report"); !strings.Contains(out, "rdrop") {
				t.Fatalf("report lost rdrop: %q", out)
			}
		case 3:
			pl.Command("streams")
			reg.Snapshot()
		case 4:
			pl.Command("delete rdrop 0.0.0.0 0 0.0.0.0 0")
			pl.FlushMatchCache()
		case 5:
			exact := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", 1000+i%64)
			pl.Command("delete rdrop " + exact)
			pl.StatsSnapshot()
		}
	}
}

// TestProgramSwapVsTrafficRace pins the ordering contract between
// registry mutations and the compiled match program on the concurrent
// plane: a mutation (or explicit FlushMatchCache) rides the
// quiesce/epoch barrier, so every packet dispatched after the command
// returns must be answered by a program reflecting the new registry —
// no shard may keep serving pre-mutation match results. Unlike the
// pure hammer tests above it asserts semantics per phase, on fresh
// first-sight keys each round, while the race detector watches the
// recompile-and-swap happen on shard goroutines under batched traffic.
func TestProgramSwapVsTrafficRace(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	var emitted atomic.Int64
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 13, RingSize: 64,
		BatchSize: 16,
		Sink:      func(_ int, out [][]byte) { emitted.Add(int64(len(out))) },
	})
	defer pl.Close()
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg, "plane")

	pl.Command("load rdrop")
	const per = 64
	nextPort := uint16(2000)
	// sendFresh dispatches `per` packets on never-seen stream keys and
	// returns how many the sink emitted for them.
	sendFresh := func() int64 {
		before := emitted.Load()
		for j := 0; j < per; j++ {
			pl.Dispatch(mkSeg(t, nextPort, uint32(1+j), []byte("swap race payload")))
			nextPort++
		}
		pl.Drain()
		return emitted.Load() - before
	}

	for round := 0; round < 20; round++ {
		// Phase 1: no registration — everything passes through.
		if got := sendFresh(); got != per {
			t.Fatalf("round %d: %d/%d packets passed with empty registry", round, got, per)
		}
		// Phase 2: a wild-card drop-all lands via the epoch barrier;
		// once the command returns, no shard may serve its old program.
		pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 100")
		if got := sendFresh(); got != 0 {
			t.Fatalf("round %d: %d packets leaked through a stale match program after add", round, got)
		}
		// Phase 3: an explicit flush mid-registration recompiles on
		// every shard; semantics must be unchanged.
		pl.FlushMatchCache()
		if got := sendFresh(); got != 0 {
			t.Fatalf("round %d: %d packets leaked after FlushMatchCache", round, got)
		}
		// Phase 4: delete restores pass-through for the next round's
		// fresh keys.
		pl.Command("delete rdrop 0.0.0.0 0 0.0.0.0 0")
		if got := sendFresh(); got != per {
			t.Fatalf("round %d: %d/%d packets passed after delete (over-retained program)", round, got, per)
		}
		// Concurrent scrapes exercise the read side of the new
		// registry counters against the swaps.
		reg.Snapshot()
		pl.StatsSnapshot()
	}
	snap := pl.StatsSnapshot()
	if snap.RegistryRebuilds == 0 {
		t.Fatal("no program rebuilds recorded across 20 mutation rounds")
	}
}

// TestBatchedControlVsTrafficRace is the batching variant of the race
// gate: full-rate burst traffic through small batches (so idle workers
// taking their open arenas race dispatcher seals on the producer lock),
// while the control side swaps epochs with library-wide load/remove
// cycles, fires exact-key mutations at the owning shards, forces
// classifier recompiles and seals every open arena from a third
// goroutine with wild-card commands. The race detector is the
// oracle for shard-state isolation; the final count asserts no packet
// was lost in a partial batch across all the quiesce points. The
// sender holds its second half until the control loop has issued one
// full round of commands, so the two always overlap and the epoch has
// advanced before the traffic ends.
func TestBatchedControlVsTrafficRace(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 11, RingSize: 64,
		BatchSize: 16,
	})
	defer pl.Close()

	const bursts = 500
	const per = 16
	round := make(chan struct{}) // closed after the first round of seven commands
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < bursts*per; i++ {
			if i == bursts*per/2 {
				<-round
			}
			pl.Dispatch(mkSeg(t, uint16(1000+i%64), uint32(1+i), []byte("batched race payload")))
		}
	}()

	pl.Command("load tcp")
	epochAt := pl.Epoch()
	for i := 0; ; i++ {
		select {
		case <-done:
			pl.Drain()
			if snap := pl.StatsSnapshot(); snap.Intercepted != bursts*per {
				t.Fatalf("intercepted %d packets, dispatched %d", snap.Intercepted, bursts*per)
			}
			if pl.Epoch() <= epochAt {
				t.Fatal("control loop never advanced the epoch")
			}
			if got := pl.Batches(); got == 0 {
				t.Fatal("no batches drained")
			}
			return
		default:
		}
		switch i % 7 {
		case 0:
			// Epoch swap: the whole rdrop library comes and goes under
			// traffic, obsoleting every shard's compiled match program.
			pl.Command("load rdrop")
		case 1:
			pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 25")
		case 2:
			exact := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", 1000+i%64)
			pl.Command("add rdrop " + exact + " 50")
		case 3:
			exact := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 5001", 1000+i%64)
			pl.Command("delete rdrop " + exact)
		case 4:
			pl.Command("remove rdrop")
			pl.FlushMatchCache()
		case 5:
			pl.Command("streams")
		case 6:
			pl.Command("delete rdrop 0.0.0.0 0 0.0.0.0 0")
			pl.StatsSnapshot()
			if i == 6 {
				close(round)
			}
		}
	}
}

// TestParkHandshakeNoStrandedPacket races the producer's parked check
// against the worker's poll, park and idle seal: bursts separated by
// random gaps of 0–200 µs, so that packets land while the worker is
// busy, polling, deciding to park and parked. No Drain and no Command
// is issued — nothing but the handshake moves a packet — and every one
// must reach the sink, in order per flow, before the deadline. The
// RingSize 2 cases fill the ring, so the producer holds the lock while
// it spins and the worker must never wait for it; at 4 shards the
// dispatcher spins on one full ring while the other shards poll and
// park. Dispatch runs on its own goroutine, so a hang fails at the
// deadline too.
func TestParkHandshakeNoStrandedPacket(t *testing.T) {
	type tc struct{ shards, batch, ring int }
	var cases []tc
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 7, 64} {
			cases = append(cases, tc{shards, batch, 64})
		}
	}
	cases = append(cases, tc{1, 1, 2}, tc{4, 1, 2})
	for i, c := range cases {
		t.Run(fmt.Sprintf("shards=%d/batch=%d/ring=%d", c.shards, c.batch, c.ring), func(t *testing.T) {
			const flows, bursts = 16, 300
			rng := rand.New(rand.NewSource(int64(i)))
			var seq [flows]uint32
			sched := make([][][]byte, bursts)
			gaps := make([]time.Duration, bursts)
			total := int64(0)
			for b := range sched {
				for n := 1 + rng.Intn(32); n > 0; n-- {
					f := rng.Intn(flows)
					seq[f]++
					sched[b] = append(sched[b], mkSeg(t, uint16(1000+f), seq[f], nil))
				}
				total += int64(len(sched[b]))
				gaps[b] = time.Duration(rng.Intn(200)) * time.Microsecond
			}
			var got, disorder atomic.Int64
			var last [flows]uint32 // per flow, written only by its shard's goroutine
			pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
				Shards: c.shards, Catalog: filter.NewCatalog(), Seed: 5, RingSize: c.ring, BatchSize: c.batch,
				Sink: func(_ int, out [][]byte) {
					for _, raw := range out {
						// mkSeg's datagram: 20-byte IP header, then the
						// TCP source port and sequence number.
						f := binary.BigEndian.Uint16(raw[20:]) - 1000
						seq := binary.BigEndian.Uint32(raw[24:])
						if seq != last[f]+1 {
							disorder.Add(1)
						}
						last[f] = seq
					}
					got.Add(int64(len(out)))
				},
			})
			dispatched := make(chan struct{})
			go func() {
				defer close(dispatched)
				for b, burst := range sched {
					for _, raw := range burst {
						pl.Dispatch(raw)
					}
					for start := time.Now(); time.Since(start) < gaps[b]; {
						runtime.Gosched()
					}
				}
			}()
			// On failure the plane is left running: closing it could
			// wait on the very hang being reported.
			for deadline := time.Now().Add(5 * time.Second); got.Load() < total; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d packets stranded without a Drain", total-got.Load(), total)
				}
			}
			<-dispatched
			pl.Close()
			if n := disorder.Load(); n != 0 {
				t.Fatalf("%d packets delivered out of flow order", n)
			}
			if c.ring == 2 && pl.Stalls() == 0 {
				t.Fatal("the producer never found the 2-slot ring full")
			}
		})
	}
}

// TestCountersAfterCloseRace reads the shards' plain counters the two
// ways the plane offers: under the quiesce barrier while traffic runs
// (merged and per-shard metric rows, StatsSnapshot, a scrape racing
// the dispatcher), then directly once Close has returned, when no
// shard goroutine is left to run a barrier. After Close the merged
// count must equal what was dispatched, and each shard's row what was
// steered to that shard; the race detector checks that no read
// touched a shard outside its goroutine.
func TestCountersAfterCloseRace(t *testing.T) {
	const shards, pkts = 4, 4000
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: shards, Catalog: filter.NewCatalog(), Seed: 3, RingSize: 16, BatchSize: 8,
	})
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg, "plane")

	var want [shards]int64
	raws := make([][]byte, pkts)
	for i := range raws {
		raws[i] = mkSeg(t, uint16(1000+i%64), uint32(1+i), nil)
		k, _ := filter.SteerKey(raws[i])
		want[dataplane.ShardOf(k, shards)]++
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, raw := range raws {
			pl.Dispatch(raw)
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			reg.Snapshot()
			if got := pl.StatsSnapshot().Intercepted; got > pkts {
				t.Fatalf("intercepted %d of %d dispatched", got, pkts)
			}
		}
	}
	pl.Close()

	if got := pl.StatsSnapshot().Intercepted; got != pkts {
		t.Fatalf("StatsSnapshot after Close: intercepted %d, dispatched %d", got, pkts)
	}
	rows := make(map[string]string)
	for _, s := range reg.Snapshot() {
		rows[s.Name] = s.Value
	}
	if got := rows["plane.intercepted"]; got != fmt.Sprint(pkts) {
		t.Fatalf("plane.intercepted after Close = %s, want %d", got, pkts)
	}
	for i, n := range want {
		name := fmt.Sprintf("plane.shard%d.intercepted", i)
		if got := rows[name]; got != fmt.Sprint(n) {
			t.Fatalf("%s after Close = %s, want %d (packets steered to it)", name, got, n)
		}
	}
}

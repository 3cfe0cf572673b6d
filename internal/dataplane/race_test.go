package dataplane_test

import (
	"fmt"
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

// TestBatchedControlVsTrafficRace is the batching variant of the race
// gate: full-rate burst traffic through small batches with the flush
// timer armed (so timer flushes race dispatcher flushes on the
// producer lock), while the control side swaps epochs with
// library-wide load/remove cycles, fires exact-key mutations at the
// owning shards, forces classifier recompiles, and injects
// micro-stalls at batch boundaries with the watchdog running. The
// race detector is the oracle for shard-state isolation; the final
// count asserts no packet was lost in a partial batch across all the
// quiesce points.
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
		BatchSize: 16, FlushInterval: 200 * time.Microsecond,
		Sink: func(_ int, out [][]byte) { emitted.Add(int64(len(out))) },
	})
	defer pl.Close()
	stopDog := pl.StartWatchdog(5 * time.Millisecond)
	defer stopDog()
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

func TestBatchedControlVsTrafficRace(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 11, RingSize: 64,
		BatchSize: 16, FlushInterval: 200 * time.Microsecond,
	})
	defer pl.Close()
	stopDog := pl.StartWatchdog(5 * time.Millisecond)
	defer stopDog()

	const bursts = 500
	const per = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < bursts*per; i++ {
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
			pl.InjectStall(i%4, 100*time.Microsecond)
			pl.Command("streams")
		case 6:
			pl.Flush()
			pl.StatsSnapshot()
		}
	}
}

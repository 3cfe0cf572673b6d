package perf

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// mkTCPFlow is mkTCP with a caller-chosen source port, so tests can
// spread traffic across distinct streams (and therefore shards).
func mkTCPFlow(tb testing.TB, srcPort uint16, seq uint32, payload int) []byte {
	tb.Helper()
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: pattern(payload)}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: core.WiredAddr, Dst: core.MobileAddr}
	raw, err := h.Marshal(seg.Marshal(core.WiredAddr, core.MobileAddr))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// shardedPlane builds a concurrent plane with the tcp bookkeeping
// filter plus `depth` no-op rdrop filters on every stream — the same
// per-packet work as the E15 queue-depth table, now spread over
// shards. batch is the ring-slot batch size (0 = default).
func shardedPlane(tb testing.TB, shards, depth, batch int, sink dataplane.Sink) *dataplane.Plane {
	tb.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: shards, Catalog: cat, Seed: 17, RingSize: 1024,
		BatchSize: batch, Sink: sink,
	})
	cmds := []string{"load tcp", "load rdrop", "add tcp 0.0.0.0 0 0.0.0.0 0"}
	for i := 0; i < depth; i++ {
		cmds = append(cmds, "add rdrop 0.0.0.0 0 0.0.0.0 0 0")
	}
	for _, c := range cmds {
		mustPlaneCommand(tb, pl, c)
	}
	return pl
}

// mustPlaneCommand runs one control line on the plane and fails the
// test on an error reply.
func mustPlaneCommand(tb testing.TB, pl *dataplane.Plane, line string) {
	tb.Helper()
	if out := pl.Command(line); strings.HasPrefix(out, "error") {
		tb.Fatalf("%s: %s", line, out)
	}
}

// TestShardedNoCollapse gates the batched ring handoff: a fixed run of
// packets (tcp + 4 rdrop filters per stream, 4 flows per shard) goes
// through 8 shard goroutines at no less than 0.7x the aggregate rate of
// 1 shard, on any host — with fewer cores than shards the extra workers
// can only cost wakeups and context switches, and batching is what
// keeps that cost per ring slot, not per packet.
func TestShardedNoCollapse(t *testing.T) {
	skipTimingGate(t)
	const pkts, floor = 200000, 0.7
	through := func(shards int) func() {
		pl := shardedPlane(t, shards, 4, 0, func(int, [][]byte) {})
		t.Cleanup(pl.Close)
		flows := make([][]byte, 4*shards)
		for i := range flows {
			flows[i] = mkTCPFlow(t, uint16(1000+i), 1, 1000)
			pl.Dispatch(flows[i]) // build the queues, warm pools and caches
		}
		pl.Drain()
		return func() {
			for i := 0; i < pkts; i++ {
				pl.Dispatch(flows[i%len(flows)])
			}
			pl.Drain()
		}
	}
	one, eight := fastestOf(3, 1/floor, through(1), through(8))
	scale := float64(one) / float64(eight)
	t.Logf("%d packets: %v through 1 shard, %v through 8 (8v1 scale %.2f)", pkts, one, eight, scale)
	if scale < floor {
		t.Fatalf("8 shards run at %.2fx the rate of 1, want >= %v: shard handoff collapse", scale, floor)
	}
}

// TestShardedConcurrentNoLoss: every packet dispatched into the
// concurrent plane comes out exactly once.
func TestShardedConcurrentNoLoss(t *testing.T) {
	var emitted atomic.Int64
	pl := shardedPlane(t, 4, 2, 16, func(_ int, out [][]byte) {
		emitted.Add(int64(len(out)))
	})
	defer pl.Close()
	flows := make([][]byte, 16)
	for i := range flows {
		flows[i] = mkTCPFlow(t, uint16(1000+i), 1, 200)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		pl.Dispatch(flows[i%len(flows)])
	}
	pl.Drain()
	if got := emitted.Load(); got != n {
		t.Fatalf("emitted %d packets, dispatched %d", got, n)
	}
	if snap := pl.StatsSnapshot(); snap.Intercepted != n {
		t.Fatalf("intercepted %d, want %d", snap.Intercepted, n)
	}
}

// TestShardedTTSFSpawnAndClose drives the one package-level table a
// filter keeps — the live TTSFs behind TTSFStatsFor — from several
// shard goroutines at once: first-sight packets of 256 streams make a
// wild-card launcher spawn "tcp ttsf" per stream on whichever shard
// owns it, and a wild-card delete then closes them all, every shard at
// the same time. Under -race this fails if the table is unguarded.
func TestShardedTTSFSpawnAndClose(t *testing.T) {
	const flows = 256
	key := func(i int) filter.Key {
		return filter.Key{SrcIP: core.WiredAddr, SrcPort: uint16(1000 + i), DstIP: core.MobileAddr, DstPort: 5001}
	}
	// live reports that the stream's TTSF is listed and saw the packet.
	live := func(k filter.Key) bool { st, ok := filters.TTSFStatsFor(k); return ok && st.BytesIn == 100 }
	t.Run("tcp ttsf", func(t *testing.T) {
		cat := filter.NewCatalog()
		filters.RegisterAll(cat)
		pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
			Shards: 4, Catalog: cat, Seed: 17, RingSize: 1024,
			Sink: func(int, [][]byte) {},
		})
		defer pl.Close()
		wild := fmt.Sprintf("%v 0 %v 0", core.WiredAddr, core.MobileAddr)
		for _, name := range []string{"tcp", "ttsf", "launcher"} {
			mustPlaneCommand(t, pl, "load "+name)
		}
		mustPlaneCommand(t, pl, "add launcher "+wild+" tcp ttsf")

		shardsUsed := map[int]bool{}
		for i := 0; i < flows; i++ {
			pl.Dispatch(mkTCPFlow(t, uint16(1000+i), 1, 100))
			shardsUsed[dataplane.ShardOf(key(i), pl.N())] = true
		}
		pl.Drain()
		if len(shardsUsed) < 2 {
			t.Fatalf("all %d streams steered to one shard", flows)
		}
		for i := 0; i < flows; i++ {
			if !live(key(i)) {
				t.Fatalf("stream %d: instance missing or idle", i)
			}
		}
		mustPlaneCommand(t, pl, "delete ttsf "+wild)
		for i := 0; i < flows; i++ {
			if live(key(i)) {
				t.Fatalf("stream %d: instance still listed after its close", i)
			}
		}
	})
}

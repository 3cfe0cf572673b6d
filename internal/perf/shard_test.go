package perf

import (
	"fmt"
	"runtime"
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

// mkTCPFlow is mkTCP with a caller-chosen source port, so benchmarks
// can spread traffic across distinct streams (and therefore shards).
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
// per-packet work as the E15 queue-depth benchmarks, now spread over
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

// benchSharded is the shared body of the sharded throughput
// benchmarks: GOMAXPROCS-many shards behind the flow-steering
// dispatcher, 4 flows per shard, tcp + 4 rdrop filters per stream.
func benchSharded(b *testing.B, batch int) {
	shards := runtime.GOMAXPROCS(0)
	var emitted atomic.Int64
	pl := shardedPlane(b, shards, 4, batch, func(_ int, out [][]byte) {
		emitted.Add(int64(len(out)))
	})
	defer pl.Close()
	flows := make([][]byte, 4*shards)
	for i := range flows {
		flows[i] = mkTCPFlow(b, uint16(1000+i), 1, 1000)
	}
	for _, raw := range flows { // build queues, warm pools and caches
		pl.Dispatch(raw)
	}
	pl.Drain()
	b.SetBytes(int64(len(flows[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Dispatch(flows[i%len(flows)])
	}
	pl.Drain()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	if got := emitted.Load(); got != int64(b.N+len(flows)) {
		b.Fatalf("emitted %d packets, want %d", got, b.N+len(flows))
	}
}

// BenchmarkShardedIntercept is the multi-core aggregate interception
// rate through the batched pipeline (default batch size). Run with
// -cpu 1,2,4,8 to sweep the shard count; `make bench-shard` records
// the curve in BENCH_shard.json and `make bench-gate` enforces it.
// The steady state must stay 0 allocs/op: arenas and delivery buffers
// recycle, packets are never copied.
func BenchmarkShardedIntercept(b *testing.B) {
	benchSharded(b, 0)
}

// BenchmarkShardedInterceptBatch1 is the same pipeline degenerated to
// one packet per ring slot — the per-packet handoff the pre-batching
// plane paid on every packet. The gap to BenchmarkShardedIntercept is
// the amortization win; on a single-core host it is the difference
// between collapsing under futex traffic and keeping pace.
func BenchmarkShardedInterceptBatch1(b *testing.B) {
	benchSharded(b, 1)
}

// BenchmarkSteerKey is the dispatcher's per-packet overhead on its
// own: key extraction plus the shard hash.
func BenchmarkSteerKey(b *testing.B) {
	raw := mkTCP(b, 1, 1000)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, ok := filter.SteerKey(raw)
		if !ok {
			b.Fatal("SteerKey failed")
		}
		if dataplane.ShardOf(k, 8) > 7 {
			b.Fatal("impossible shard")
		}
	}
}

// TestShardedInlineZeroAlloc gates the sharded steady-state invariant:
// steering (SteerKey + ShardOf) plus the owning shard's interception
// must stay allocation-free, exactly like the single-proxy hot path.
func TestShardedInlineZeroAlloc(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 17, Shards: 4})
	sys.MustCommand("load tcp")
	sys.MustCommand("add tcp 0.0.0.0 0 0.0.0.0 0")
	hook := sys.ProxyHost.PacketHook()
	in := sys.ProxyHost.Ifaces()[0]
	flows := make([][]byte, 8)
	for i := range flows {
		flows[i] = mkTCPFlow(t, uint16(1000+i), 1, 1000)
		hook(flows[i], in) // build each stream's queue outside the measurement
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		hook(flows[i%len(flows)], in)
		i++
	}); allocs != 0 {
		t.Fatalf("sharded inline intercept allocates %.1f times per packet, want 0", allocs)
	}
}

// TestShardedConcurrentNoLoss sanity-checks the benchmark harness
// itself: every dispatched packet comes out exactly once.
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

// TestShardedTTSFSpawnAndClose drives the one piece of state TTSF
// instances share across shards — the table behind TTSFStatsFor — from
// several shard goroutines at once: first-sight packets of 256 streams
// make a wild-card launcher spawn a TTSF per stream on whichever shard
// owns it, and a wild-card delete then closes them all, every shard at
// the same time. Under -race this fails if the table is unguarded.
func TestShardedTTSFSpawnAndClose(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 17, RingSize: 1024,
		Sink: func(int, [][]byte) {},
	})
	defer pl.Close()
	wild := fmt.Sprintf("%v 0 %v 0", core.WiredAddr, core.MobileAddr)
	for _, c := range []string{"load tcp", "load ttsf", "load launcher", "add launcher " + wild + " tcp ttsf"} {
		mustPlaneCommand(t, pl, c)
	}

	const flows = 256
	key := func(i int) filter.Key {
		return filter.Key{SrcIP: core.WiredAddr, SrcPort: uint16(1000 + i), DstIP: core.MobileAddr, DstPort: 5001}
	}
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
		if st, ok := filters.TTSFStatsFor(key(i)); !ok || st.BytesIn != 100 {
			t.Fatalf("stream %d: TTSF missing or idle (ok=%v, %+v)", i, ok, st)
		}
	}
	mustPlaneCommand(t, pl, "delete ttsf "+wild)
	for i := 0; i < flows; i++ {
		if _, ok := filters.TTSFStatsFor(key(i)); ok {
			t.Fatalf("stream %d: TTSF still listed after its close", i)
		}
	}
}

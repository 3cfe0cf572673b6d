package dataplane_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// runScenario drives one filtered transfer at the given shard count
// and returns the full event log, the received bytes, and the merged
// stats.
func runScenario(t *testing.T, shards int) (string, []byte, int64) {
	t.Helper()
	sys := core.NewSystem(core.Config{Seed: 5, Shards: shards, ObsRetention: 1 << 14})
	sys.MustCommand("load tcp")
	sys.MustCommand("load rdrop")
	sys.MustCommand("add tcp 0.0.0.0 0 0.0.0.0 0")
	sys.MustCommand("add rdrop 0.0.0.0 0 0.0.0.0 0 20")
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	res, err := sys.Transfer(payload, 7, 5001, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("transfer incomplete at %d shards: %d/%d bytes",
			shards, len(res.Received), len(payload))
	}
	var log bytes.Buffer
	if err := sys.Obs.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	return log.String(), res.Received, sys.Plane.StatsSnapshot().Intercepted
}

// TestInlineShardingEquivalence is the determinism tentpole check: the
// same deployment at 1 and 4 inline shards must produce byte-identical
// event logs, payloads, and packet counts — sharding partitions state,
// never behavior, inside the simulator.
func TestInlineShardingEquivalence(t *testing.T) {
	log1, recv1, pkts1 := runScenario(t, 1)
	log4, recv4, pkts4 := runScenario(t, 4)
	if !bytes.Equal(recv1, recv4) {
		t.Fatalf("received payload differs between 1 and 4 shards")
	}
	if pkts1 != pkts4 {
		t.Fatalf("intercepted count differs: %d at 1 shard, %d at 4", pkts1, pkts4)
	}
	if log1 != log4 {
		i := 0
		for i < len(log1) && i < len(log4) && log1[i] == log4[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("event logs diverge at byte %d:\n1 shard: %.160q\n4 shards: %.160q",
			i, log1[lo:], log4[lo:])
	}
}

// TestMergedMetricsCoverProxy: a sharded plane's merged metrics must
// name everything a single proxy's do — an operator's `stats` on a
// multi-shard SP must not lose sight of a counter, least of all the
// two that report a misbehaving filter. A panicking filter on a
// 4-shard inline plane has to show up as filter_quarantines >= 1.
func TestMergedMetricsCoverProxy(t *testing.T) {
	sys := core.NewSystem(core.Config{Seed: 5, Shards: 4})
	faults.RegisterChaosFilter(sys.Catalog)
	const key = " 11.11.10.99 7 11.11.10.10 5001"
	for _, c := range []string{"load tcp", "load chaos", "add tcp" + key, "add chaos" + key + " panic"} {
		sys.MustCommand(c)
	}
	if res, err := sys.Transfer(make([]byte, 20000), 7, 5001, 10e9); err != nil || !res.Completed {
		t.Fatalf("transfer under a panicking filter: err=%v res=%+v", err, res)
	}

	merged := make(map[string]string)
	for _, s := range sys.Metrics.Snapshot() {
		merged[s.Name] = s.Value
	}
	single := obs.NewRegistry()
	sys.Plane.Shard(0).RegisterMetrics(single, "proxy")
	for _, name := range single.Names() {
		if _, ok := merged[name]; !ok {
			t.Errorf("merged plane registers no %s", name)
		}
	}
	if v := merged["proxy.filter_quarantines"]; v == "" || v == "0" {
		t.Errorf("proxy.filter_quarantines = %q after a quarantine, want >= 1", v)
	}
	if v := merged["proxy.hook_panics"]; v == "" || v == "0" {
		t.Errorf("proxy.hook_panics = %q after a quarantine, want >= 1", v)
	}
}

// standalonePlane builds an inline plane outside core, driven directly
// through its Hook.
func standalonePlane(t *testing.T, shards int) *dataplane.Plane {
	t.Helper()
	s := sim.NewScheduler(3)
	net := netsim.New(s)
	node := net.AddNode("proxy")
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	return dataplane.NewInline(node, cat, shards)
}

func mkSeg(t testing.TB, srcPort uint16, seq uint32, payload []byte) []byte {
	t.Helper()
	src := ip.MustParseAddr("11.11.10.99")
	dst := ip.MustParseAddr("11.11.10.10")
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: seq, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: payload}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: dst}
	raw, err := h.Marshal(seg.Marshal(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCommandRouting: exact-key mutations touch only the owning shard,
// wild-card mutations reach every shard, and the merged report shows
// one coherent listing.
func TestCommandRouting(t *testing.T) {
	pl := standalonePlane(t, 4)
	if out := pl.Command("load rdrop"); out != "rdrop\n" {
		t.Fatalf("load output %q", out)
	}
	for i := 0; i < pl.N(); i++ {
		if got := pl.Shard(i).RegistrationCount(); got != 0 {
			t.Fatalf("shard %d has %d registrations before add", i, got)
		}
	}
	exact := "11.11.10.99 7 11.11.10.10 5001"
	k, err := filter.ParseKey(strings.Fields(exact))
	if err != nil {
		t.Fatal(err)
	}
	if out := pl.Command("add rdrop " + exact + " 100"); out != "" {
		t.Fatalf("exact add: %q", out)
	}
	owner := dataplane.ShardOf(k, pl.N())
	var total int64
	for i := 0; i < pl.N(); i++ {
		n := pl.Shard(i).RegistrationCount()
		total += n
		if i == owner && n != 1 {
			t.Fatalf("owning shard %d has %d registrations, want 1", i, n)
		}
		if i != owner && n != 0 {
			t.Fatalf("non-owning shard %d has %d registrations (ghost state)", i, n)
		}
	}
	if total != 1 {
		t.Fatalf("total registrations = %d, want 1", total)
	}
	if epoch := pl.Epoch(); epoch != 2 { // load + add
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	// Wild-card add replicates to every shard.
	pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 100")
	for i := 0; i < pl.N(); i++ {
		want := int64(1)
		if i == owner {
			want = 2
		}
		if got := pl.Shard(i).RegistrationCount(); got != want {
			t.Fatalf("shard %d has %d registrations after wildcard add, want %d", i, got, want)
		}
	}
	// The merged report shows both keys once despite the replication.
	rep := pl.Command("report rdrop")
	want := fmt.Sprintf("rdrop\n\t0.0.0.0 0 -> 0.0.0.0 0\n\t%s\n",
		"11.11.10.99 7 -> 11.11.10.10 5001")
	if rep != want {
		t.Fatalf("merged report:\n%q\nwant:\n%q", rep, want)
	}
	// Exact delete routes back to the owner.
	pl.Command("delete rdrop " + exact)
	if got := pl.Shard(owner).RegistrationCount(); got != 1 {
		t.Fatalf("owner has %d registrations after exact delete, want 1 (the wildcard)", got)
	}
	// A merged query checks arity against the shared grammar.
	if got, want := pl.Command("flows 1 2"), "error: usage: flows [n]\n"; got != want {
		t.Fatalf("flows with two args: %q, want %q", got, want)
	}
}

// TestWildcardAddCoherenceInline: traffic first seen with no matching
// registration takes the pass-through miss path on its owning shard; a
// wild-card registration added mid-traffic must still take effect on
// that same stream — no stale per-shard match state (once a negCache
// entry, now a compiled program a mutation left behind) may mask it.
func TestWildcardAddCoherenceInline(t *testing.T) {
	pl := standalonePlane(t, 4)
	raw := mkSeg(t, 7, 1000, []byte("payload-1"))
	// Pass-through traffic: no registrations, so the owning shard now
	// caches this key as a negative match.
	if out := pl.Hook(raw, nil); len(out) != 1 || !bytes.Equal(out[0], raw) {
		t.Fatal("expected clean pass-through before registration")
	}
	pl.Command("load rdrop")
	pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 100")
	// Same stream, next packet: the wildcard must now catch it.
	raw2 := mkSeg(t, 7, 2000, []byte("payload-2"))
	if out := pl.Hook(raw2, nil); len(out) != 0 {
		t.Fatalf("packet after wildcard add was not dropped (emitted %d): stale match state", len(out))
	}
	if got := pl.StatsSnapshot().DroppedByFilter; got != 1 {
		t.Fatalf("DroppedByFilter = %d, want 1", got)
	}
}

// TestWildcardAddCoherenceConcurrent is the same regression against
// the concurrent plane, where the mutation crosses goroutines through
// the epoch/quiesce broadcast.
func TestWildcardAddCoherenceConcurrent(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	var emitted int
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{
		Shards: 4, Catalog: cat, Seed: 11,
		Sink: func(_ int, out [][]byte) { emitted += len(out) },
	})
	defer pl.Close()
	pl.Dispatch(mkSeg(t, 7, 1000, []byte("payload-1")))
	pl.Drain()
	if emitted != 1 {
		t.Fatalf("pass-through emitted %d packets, want 1", emitted)
	}
	pl.Command("load rdrop")
	pl.Command("add rdrop 0.0.0.0 0 0.0.0.0 0 100")
	pl.Dispatch(mkSeg(t, 7, 2000, []byte("payload-2")))
	pl.Drain()
	if emitted != 1 {
		t.Fatalf("packet after wildcard add leaked through stale match state (emitted %d)", emitted)
	}
	if got := pl.StatsSnapshot().DroppedByFilter; got != 1 {
		t.Fatalf("DroppedByFilter = %d, want 1", got)
	}
}

// TestConcurrentCommandOutputs: the routed command surface answers
// like a single proxy (load echo, filters listing, merged streams).
func TestConcurrentCommandOutputs(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: 2, Catalog: cat, Seed: 1})
	defer pl.Close()
	if out := pl.Command("load tcp"); out != "tcp\n" {
		t.Fatalf("load: %q", out)
	}
	if out := pl.Command("load tcp"); !strings.HasPrefix(out, "error") {
		t.Fatalf("duplicate load: %q", out)
	}
	if out := pl.Command("bogus"); !strings.HasPrefix(out, "error") {
		t.Fatalf("unknown command: %q", out)
	}
	if out := pl.Command("report"); out != "tcp\n" {
		t.Fatalf("report: %q", out)
	}
	if out := pl.Command("streams"); out != "" {
		t.Fatalf("streams with no traffic: %q", out)
	}
}

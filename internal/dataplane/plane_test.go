package dataplane_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/tcp"
)

// TestMergedMetricsCoverProxy: a sharded plane's merged metrics must
// name everything a single proxy's do — an operator reading a 4-shard
// plane must not lose sight of a counter, least of all the two that
// report a misbehaving filter. A panicking filter on dispatched
// packets has to show up as filter_quarantines >= 1.
func TestMergedMetricsCoverProxy(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	faults.RegisterChaosFilter(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: 4, Catalog: cat, Seed: 5})
	defer pl.Close()
	const key = " 11.11.10.99 7 11.11.10.10 5001"
	for _, c := range []string{"load tcp", "load chaos", "add tcp" + key, "add chaos" + key + " panic"} {
		if out := pl.Command(c); strings.HasPrefix(out, "error") {
			t.Fatalf("%s: %s", c, out)
		}
	}
	for i := 0; i < 2*proxy.QuarantineStrikes; i++ {
		pl.Dispatch(mkSeg(t, 7, uint32(1+100*i), []byte("payload")))
	}
	pl.Drain()

	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg, "proxy")
	merged := make(map[string]string)
	for _, s := range reg.Snapshot() {
		merged[s.Name] = s.Value
	}
	single := obs.NewRegistry()
	pl.Shard(0).RegisterMetrics(single, "proxy")
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

// standalonePlane builds a ring plane over the full filter catalogue,
// closed when the test ends.
func standalonePlane(t *testing.T, shards int) *dataplane.Plane {
	t.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: shards, Catalog: cat, Seed: 3})
	t.Cleanup(pl.Close)
	return pl
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
// malformed ones touch none, wild-card mutations reach every shard,
// and the merged report shows one coherent listing.
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
	// A line the grammar rejects reaches no shard and bumps no epoch.
	for _, bad := range []string{
		"add rdrop 11.11.10.99 7x 11.11.10.10 5001",
		"delete rdrop " + exact + " extra",
		"add rdrop 11.11.10.99 7",
	} {
		if out := pl.Command(bad); !strings.HasPrefix(out, "error:") {
			t.Fatalf("%q: %q, want an error: diagnostic", bad, out)
		}
	}
	if epoch := pl.Epoch(); epoch != 2 {
		t.Fatalf("epoch = %d after rejected lines, want 2", epoch)
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

// TestWildcardAddCoherenceConcurrent: traffic first seen with no
// matching registration takes the pass-through miss path on its owning
// shard; a wild-card registration added mid-traffic must still take
// effect on that same stream — no stale per-shard match state (once a
// negCache entry, now a compiled program a mutation left behind) may
// mask it, though the mutation crosses goroutines through the
// epoch/quiesce broadcast.
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

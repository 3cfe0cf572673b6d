package perf

import (
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// lookupSink keeps the compiler from eliding TestRegistryLookupFlat's loop.
var lookupSink int

// registryRules builds n distinct registrations of the proxy's common
// shape — concrete endpoints, wild destination port — so the compiled
// program has one pattern however many rules it holds.
func registryRules(n int) []filter.Key {
	rules := make([]filter.Key, n)
	for i := range rules {
		rules[i] = filter.Key{SrcIP: core.WiredAddr,
			SrcPort: uint16(10000 + i%50000), DstIP: core.MobileAddr}
	}
	return rules
}

// registryProbes returns 16 rotating lookup keys: even slots hit rule
// 0 (source port 10000, present at every registry size), odd slots
// miss (source ports 2001..2015 are never registered).
func registryProbes() []filter.Key {
	probes := make([]filter.Key, 16)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = filter.Key{SrcIP: core.WiredAddr, SrcPort: 10000,
				DstIP: core.MobileAddr, DstPort: uint16(5001 + i)}
		} else {
			probes[i] = filter.Key{SrcIP: core.WiredAddr, SrcPort: uint16(2000 + i),
				DstIP: core.MobileAddr, DstPort: 5001}
		}
	}
	return probes
}

// TestRegistryLookupFlat gates the compiled classifier's flat lookup:
// the program probes its table once per pattern, and registryRules is
// one pattern at every size, so a fixed run of Match calls against 8000
// rules costs at most 1.25x the same run against 1. Above that,
// something rule-linear is back on the hot path.
func TestRegistryLookupFlat(t *testing.T) {
	skipTimingGate(t)
	const lookups, bound = 1 << 16, 1.25
	probes := registryProbes()
	match := func(rules int) func() {
		pr := classifier.Compile(registryRules(rules))
		return func() {
			hits := 0
			for i := 0; i < lookups; i++ {
				if pr.Match(probes[i&15]) {
					hits++
				}
			}
			lookupSink = hits
		}
	}
	one, many := fastestOf(64, bound, match(1), match(8000))
	t.Logf("2^16 lookups: %v against 1 rule, %v against 8000", one, many)
	if float64(many) > bound*float64(one) {
		t.Fatalf("8000-rule lookups cost %v, more than %vx the %v at 1 rule", many, bound, one)
	}
}

// TestRegistryLookupZeroAlloc gates the classifier's allocation
// invariant at scale: neither Match nor AppendMatches into a reused
// buffer may allocate against an 8000-rule program.
func TestRegistryLookupZeroAlloc(t *testing.T) {
	pr := classifier.Compile(registryRules(8000))
	probes := registryProbes()
	var scratch []int32
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		k := probes[i&15]
		i++
		if pr.Match(k) != (len(pr.AppendMatches(scratch[:0], k)) > 0) {
			t.Fatal("Match disagrees with AppendMatches")
		}
	}); allocs != 0 {
		t.Fatalf("8000-rule lookup allocates %.1f times per probe, want 0", allocs)
	}
}

// mkMissPkt builds a minimal TCP datagram from an unregistered source
// address, so it can never match registryRules registrations.
func mkMissPkt(tb testing.TB, src ip.Addr, srcPort uint16) []byte {
	tb.Helper()
	seg := tcp.Segment{SrcPort: srcPort, DstPort: 5001, Seq: 1, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535, Payload: []byte("miss")}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: src, Dst: core.MobileAddr}
	raw, err := h.Marshal(seg.Marshal(src, core.MobileAddr))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestRegistryMissChurnZeroAlloc is the negative-cache regression
// pinned as an allocation invariant: more than 2^16 packets on
// distinct never-matching stream keys traverse the full interception
// path against an 8000-rule registry, and the proxy must allocate
// nothing. The deleted negative cache failed this exactly — it
// inserted an entry per distinct key and threw the whole cache away at
// 2^16 entries, re-running the linear registry scan for every live
// flow (the mass-eviction cliff).
func TestRegistryMissChurnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates across this working set")
	}
	sys := core.NewSystem(core.Config{Seed: 31})
	sys.MustCommand("load rdrop")
	for _, k := range registryRules(8000) {
		if err := sys.Proxy.AddFilter("rdrop", k, []string{"0"}); err != nil {
			t.Fatal(err)
		}
	}
	hook := sys.ProxyHost.PacketHook()
	in := sys.ProxyHost.Ifaces()[0]

	const keys = 1<<16 + 4096
	pkts := make([][]byte, keys)
	for i := range pkts {
		// 64511 ports per source address, then advance the address:
		// every packet is a distinct first-sight stream key.
		src := ip.AddrFrom4(10, 0, 0, 1) + ip.Addr(i/64511)
		pkts[i] = mkMissPkt(t, src, uint16(1024+i%64511))
	}
	hook(pkts[0], in) // warm the emit list and the compiled program
	if allocs := testing.AllocsPerRun(1, func() {
		for _, raw := range pkts {
			hook(raw, in)
		}
	}); allocs != 0 {
		t.Fatalf("miss churn over %d distinct keys allocated %.0f times, want 0", keys, allocs)
	}
	if sys.Proxy.QueueCount() != 0 {
		t.Fatal("miss churn built filter queues")
	}
}

// TestInterceptDepth8ZeroAlloc gates the hook passes: a known flow's
// data segment through tcp and eight rate-0 rdrops (ten hooks under
// one recover: tcp's In and Out, eight rdrop Outs) allocates nothing,
// under -race too.
func TestInterceptDepth8ZeroAlloc(t *testing.T) {
	hook, prox := newDepthRig(t, 8)
	raw := mkTCP(t, 1, 64)
	hook(raw)
	before := prox.Stats
	if allocs := testing.AllocsPerRun(1000, func() { hook(raw) }); allocs != 0 {
		t.Fatalf("a depth-8 known-flow packet allocates %.2f times, want 0", allocs)
	}
	if st := prox.Stats; st.Filtered-before.Filtered != 1001 || st.DroppedByFilter != 0 || st.HookPanics != 0 {
		t.Fatalf("1001 packets: %d filtered, %d dropped, %d hook panics",
			st.Filtered-before.Filtered, st.DroppedByFilter, st.HookPanics)
	}
}

// TestInterceptKnownFlowZeroAlloc gates the flow-tag cache on
// fwd-small's registry: a known flow's data segment through the hooked
// path allocates nothing, as a cached hit (the serviced flow's queue)
// and as a cached miss (an unserviced flow). Each run also closes the
// flow with a RST and reopens it, so the answer is stamped into a zero
// tag again: storing the queue in the tag's any does not box it.
func TestInterceptKnownFlowZeroAlloc(t *testing.T) {
	r := newKnownFlowRig(t)
	for _, c := range []struct {
		name string
		pkts [2][]byte
	}{{"hit", r.hit}, {"miss", r.miss}} {
		t.Run(c.name, func(t *testing.T) {
			data, rst := c.pkts[0], c.pkts[1]
			before := r.prox.Stats
			const runs = 1000
			if allocs := testing.AllocsPerRun(runs, func() {
				r.hook(data)
				r.hook(data)
				r.hook(rst)
			}); allocs != 0 {
				t.Fatalf("a known flow's packets allocate %.2f times a run, want 0", allocs)
			}
			st := r.prox.Stats
			filtered, misses := st.Filtered-before.Filtered, st.RegistryMisses-before.RegistryMisses
			want := int64(3 * (runs + 1)) // AllocsPerRun warms up with one extra run
			if c.name == "hit" && (filtered != want || misses != 0) ||
				c.name == "miss" && (filtered != 0 || misses != want) {
				t.Fatalf("%d packets: %d filtered, %d registry misses", want, filtered, misses)
			}
		})
	}
}

package perf

import (
	"fmt"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/proxy"
	"repro/internal/tcp"
)

// streamKeys returns n keys in the churn workload's shape: both
// directions of flows from one client address, its ports in sequence,
// starting at flow first.
func streamKeys(first, n int) []filter.Key {
	keys := make([]filter.Key, n)
	for i := range keys {
		k := filter.Key{SrcIP: ip.AddrFrom4(12, 0, 0, 1), SrcPort: uint16(1024 + first + i/2),
			DstIP: ip.AddrFrom4(11, 11, 10, 10), DstPort: 5001}
		if i%2 == 1 {
			k = k.Reverse()
		}
		keys[i] = k
	}
	return keys
}

type queueStub struct{ n int }

// BenchmarkStreamTable times a hit, a miss and an insert+delete
// turnover against 64 and 4096 live keys, on filter.KeyMap ("keymap")
// and on the map[filter.Key]*T it replaced in the proxy's queue table
// and the flow log ("gomap"), with the same loops over the same keys:
//
//	go test -run '^$' -bench StreamTable -benchmem ./internal/perf
func BenchmarkStreamTable(b *testing.B) {
	for _, live := range []int{64, 4096} {
		// The live set, then as many keys again that are never held at
		// the same time as it. A turnover takes the oldest key out and
		// puts a fresh one in, cycling through all 2*live keys.
		keys := streamKeys(0, 2*live)
		b.Run(fmt.Sprintf("hit/keymap/%d", live), func(b *testing.B) {
			m := fillKeyMap(keys[:live])
			for i := 0; i < b.N; i++ {
				q, _ := m.Get(keys[i%live])
				q.n++
			}
		})
		b.Run(fmt.Sprintf("hit/gomap/%d", live), func(b *testing.B) {
			m := fillGoMap(keys[:live])
			for i := 0; i < b.N; i++ {
				m[keys[i%live]].n++
			}
		})
		b.Run(fmt.Sprintf("miss/keymap/%d", live), func(b *testing.B) {
			m := fillKeyMap(keys[:live])
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(keys[live+i%live]); ok {
					b.Fatal("found a key never inserted")
				}
			}
		})
		b.Run(fmt.Sprintf("miss/gomap/%d", live), func(b *testing.B) {
			m := fillGoMap(keys[:live])
			for i := 0; i < b.N; i++ {
				if _, ok := m[keys[live+i%live]]; ok {
					b.Fatal("found a key never inserted")
				}
			}
		})
		b.Run(fmt.Sprintf("insdel/keymap/%d", live), func(b *testing.B) {
			m, q := fillKeyMap(keys[:live]), &queueStub{}
			for i := 0; i < b.N; i++ {
				m.Delete(keys[i%(2*live)])
				slot, _ := m.Insert(keys[(i+live)%(2*live)])
				*slot = q
			}
		})
		b.Run(fmt.Sprintf("insdel/gomap/%d", live), func(b *testing.B) {
			m, q := fillGoMap(keys[:live]), &queueStub{}
			for i := 0; i < b.N; i++ {
				delete(m, keys[i%(2*live)])
				m[keys[(i+live)%(2*live)]] = q
			}
		})
	}
}

// fwdSmallRegistry is the registry of the benchmark's fwd-small
// workload: five destination-only rules, 500 naming the source endpoint
// and the destination address, and 500 exact keys of 20 clients on an
// unused network. That is three wild-card patterns.
func fwdSmallRegistry() []filter.Key {
	var rules []filter.Key
	for i := 0; i < 5; i++ {
		rules = append(rules, filter.Key{DstIP: core.MobileAddr})
	}
	for i := 0; i < 500; i++ {
		rules = append(rules,
			filter.Key{SrcIP: core.WiredAddr, SrcPort: uint16(20000 + i), DstIP: core.MobileAddr},
			filter.Key{SrcIP: ip.AddrFrom4(10, 1, 0, byte(1+i%20)), SrcPort: uint16(7000 + i/20),
				DstIP: core.MobileAddr, DstPort: 5001})
	}
	return rules
}

// BenchmarkRegistryMiss times the registry lookup that half of
// fwd-small's packets pay: the key of one of its 32 unserviced flows,
// in either direction, against its registry, missing in every pattern:
//
//	go test -run '^$' -bench RegistryMiss -benchmem ./internal/perf
func BenchmarkRegistryMiss(b *testing.B) {
	pr := classifier.Compile(fwdSmallRegistry())
	keys := make([]filter.Key, 64)
	for i := range keys {
		keys[i] = filter.Key{SrcIP: core.WiredAddr, SrcPort: uint16(2032 + i/2),
			DstIP: ip.AddrFrom4(11, 11, 10, 11), DstPort: 5001}
		if i%2 == 1 {
			keys[i] = keys[i].Reverse()
		}
	}
	var matches []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if matches = pr.AppendMatches(matches[:0], keys[i&63]); len(matches) != 0 {
			b.Fatal("an unserviced flow matched the registry")
		}
	}
}

// knownFlowRig is fwd-small's proxy on a simulated node: its registry
// (tcp and four rdrop on every stream to the mobile host, 1000
// registrations no packet matches), a serviced flow and an unserviced
// one. Each flow's packets are a data segment and a RST: the RST
// closes its flow record, so the next data segment reopens it with a
// zero tag and the proxy stamps the answer again.
type knownFlowRig struct {
	hook      func([]byte)
	prox      *proxy.Proxy
	hit, miss [2][]byte // data, RST
}

func newKnownFlowRig(tb testing.TB) *knownFlowRig {
	tb.Helper()
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load tcp")
	sys.MustCommand("load rdrop")
	for i, k := range fwdSmallRegistry() {
		name, args := "rdrop", []string{"0"}
		if i == 0 {
			name, args = "tcp", nil
		}
		if err := sys.Proxy.AddFilter(name, k, args); err != nil {
			tb.Fatal(err)
		}
	}
	hit := filter.Key{SrcIP: core.WiredAddr, SrcPort: 7, DstIP: core.MobileAddr, DstPort: 5001}
	miss := filter.Key{SrcIP: core.WiredAddr, SrcPort: 2032, DstIP: ip.AddrFrom4(11, 11, 10, 11), DstPort: 5001}
	hook, in := sys.ProxyHost.PacketHook(), sys.ProxyHost.Ifaces()[0]
	return &knownFlowRig{
		hook: func(raw []byte) { hook(raw, in) },
		prox: sys.Proxy,
		hit:  [2][]byte{mkFlowPkt(tb, hit, tcp.FlagACK, 64), mkFlowPkt(tb, hit, tcp.FlagRST, 0)},
		miss: [2][]byte{mkFlowPkt(tb, miss, tcp.FlagACK, 64), mkFlowPkt(tb, miss, tcp.FlagRST, 0)},
	}
}

// mkFlowPkt builds a segment of stream k with the given flags and
// payload size.
func mkFlowPkt(tb testing.TB, k filter.Key, flags byte, payload int) []byte {
	tb.Helper()
	seg := tcp.Segment{SrcPort: k.SrcPort, DstPort: k.DstPort, Seq: 1, Ack: 1,
		Flags: flags, Window: 65535, Payload: pattern(payload)}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: k.SrcIP, Dst: k.DstIP}
	raw, err := h.Marshal(seg.Marshal(k.SrcIP, k.DstIP))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// newDepthRig is a hooked proxy whose only registrations are tcp and
// depth rate-0 rdrops on the probe stream: a queue of depth+1
// attachments (the E15 and proxy.intercept_depth* chain). It returns the
// hook, fed a data segment of that stream, and the proxy.
func newDepthRig(tb testing.TB, depth int) (func([]byte), *proxy.Proxy) {
	tb.Helper()
	sys := core.NewSystem(core.Config{Seed: 17})
	sys.MustCommand("load tcp")
	sys.MustCommand("load rdrop")
	sys.MustCommand("add tcp " + probeKey())
	for i := 0; i < depth; i++ {
		sys.MustCommand("add rdrop " + probeKey() + " 0")
	}
	hook, in := sys.ProxyHost.PacketHook(), sys.ProxyHost.Ifaces()[0]
	return func(raw []byte) { hook(raw, in) }, sys.Proxy
}

// BenchmarkInterceptKnownFlow times one data segment of a known flow
// through a hooked proxy. On fwd-small's registry: "hit" on the
// serviced flow (tcp and four rdrop), "miss" on an unserviced one.
// "depthN" is the probe stream under tcp and N rate-0 rdrops alone, so
// (depth8 - depth0) / 8 is the marginal cost of one hook. All take
// their answer from the flow record's tag, with no queue or classifier
// probe:
//
//	go test -run '^$' -bench InterceptKnownFlow -benchmem ./internal/perf
func BenchmarkInterceptKnownFlow(b *testing.B) {
	r := newKnownFlowRig(b)
	run := func(name string, hook func([]byte), raw []byte) {
		b.Run(name, func(b *testing.B) {
			hook(raw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hook(raw)
			}
		})
	}
	run("hit", r.hook, r.hit[0])
	run("miss", r.hook, r.miss[0])
	for _, depth := range []int{0, 4, 8} {
		hook, _ := newDepthRig(b, depth)
		run(fmt.Sprintf("depth%d", depth), hook, mkTCP(b, 1, 64))
	}
}

func fillKeyMap(keys []filter.Key) *filter.KeyMap[*queueStub] {
	m := new(filter.KeyMap[*queueStub])
	for _, k := range keys {
		slot, _ := m.Insert(k)
		*slot = &queueStub{}
	}
	return m
}

func fillGoMap(keys []filter.Key) map[filter.Key]*queueStub {
	m := make(map[filter.Key]*queueStub)
	for _, k := range keys {
		m[k] = &queueStub{}
	}
	return m
}

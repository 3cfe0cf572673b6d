package perf

import (
	"fmt"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/ip"
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

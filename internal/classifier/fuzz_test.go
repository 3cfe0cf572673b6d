package classifier

import (
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
)

// decodeKey maps 4 fuzz bytes onto a key drawn from small value pools,
// so random inputs collide often enough to exercise shared classes,
// wild-cards, and zero-field lookup keys.
func decodeKey(b []byte) filter.Key {
	addr := func(v byte) ip.Addr {
		if v&7 == 0 {
			return 0 // wild-card / zero field
		}
		return ip.AddrFrom4(10, 0, 0, v&31)
	}
	port := func(v byte) uint16 {
		if v&7 == 0 {
			return 0
		}
		return uint16(v&31) * 1000
	}
	return filter.Key{
		SrcIP:   addr(b[0]),
		SrcPort: port(b[1]),
		DstIP:   addr(b[2]),
		DstPort: port(b[3]),
	}
}

// FuzzClassifierParity feeds arbitrary byte strings decoded as a rule
// set plus lookup keys and asserts the compiled program answers every
// lookup exactly as the reference filter.Key.Matches scan.
func FuzzClassifierParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 16, 0, 16, 0, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// First chunk count picks how many 4-byte groups become rules;
		// the rest become lookup keys.
		groups := len(data) / 4
		nRules := int(data[0]) % (groups + 1)
		rules := make([]filter.Key, 0, nRules)
		for i := 0; i < nRules; i++ {
			rules = append(rules, decodeKey(data[i*4:]))
		}
		pr := Compile(rules)
		if len(pr.patterns) > 16 {
			t.Fatalf("%d patterns from rules %v, more than the 16 a key can have", len(pr.patterns), rules)
		}
		for i := nRules; i < groups; i++ {
			k := decodeKey(data[i*4:])
			want := refMatch(rules, k)
			if got := pr.Match(k); got != want {
				t.Fatalf("Match(%v) = %v, reference = %v (rules %v)", k, got, want, rules)
			}
			if got, want := pr.AppendMatches(nil, k), refIndices(rules, k); !sameIndices(got, want) {
				t.Fatalf("AppendMatches(%v) = %v, reference = %v (rules %v)", k, got, want, rules)
			}
		}
	})
}
